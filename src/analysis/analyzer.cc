#include "analysis/analyzer.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <sstream>
#include <unordered_set>

#include "analysis/dataflow.h"
#include "datalog/eval_plan.h"
#include "datalog/strata.h"

namespace mondet {

namespace {

SourceLoc RuleLoc(const Program& program, int rule_index) {
  SourceLoc loc;
  loc.rule = rule_index;
  if (rule_index >= 0 &&
      rule_index < static_cast<int>(program.rules().size())) {
    const Rule& r = program.rules()[rule_index];
    loc.line = r.line;
    loc.col = r.col;
  }
  return loc;
}

std::string AtomSignature(const Vocabulary& vocab, const QAtom& a) {
  return vocab.name(a.pred) + "/" + std::to_string(vocab.arity(a.pred));
}

}  // namespace

const char* FragmentName(Fragment f) {
  switch (f) {
    case Fragment::kNonRecursive:
      return "non-recursive";
    case Fragment::kMonadic:
      return "monadic";
    case Fragment::kFrontierGuarded:
      return "frontier-guarded";
  }
  return "unknown";
}

RecursionReport AnalyzeRecursion(const Program& program) {
  RecursionReport report;
  const Stratification strat = Stratify(program);
  report.num_strata = strat.strata.size();
  for (const Stratification::Stratum& st : strat.strata) {
    if (!st.recursive) continue;
    report.cyclic_idbs.insert(report.cyclic_idbs.end(), st.preds.begin(),
                              st.preds.end());
  }
  std::sort(report.cyclic_idbs.begin(), report.cyclic_idbs.end());
  report.recursive = !report.cyclic_idbs.empty();
  for (const std::vector<int>& atoms : strat.recursive_atoms) {
    if (atoms.size() > 1) report.linear = false;
  }
  return report;
}

std::vector<Diagnostic> FragmentViolations(const Program& program,
                                           Fragment fragment,
                                           Severity severity) {
  std::vector<Diagnostic> out;
  const Vocabulary& vocab = *program.vocab();
  std::string check = std::string("fragment-") + FragmentName(fragment);
  switch (fragment) {
    case Fragment::kMonadic: {
      std::vector<PredId> idbs(program.Idbs().begin(), program.Idbs().end());
      std::sort(idbs.begin(), idbs.end());
      for (PredId p : idbs) {
        if (vocab.arity(p) <= 1) continue;
        std::vector<size_t> rules = program.RulesFor(p);
        SourceLoc loc =
            RuleLoc(program, rules.empty() ? -1 : static_cast<int>(rules[0]));
        loc.atoms = {SourceLoc::kHead};
        std::ostringstream os;
        os << "IDB predicate " << vocab.name(p) << " has arity "
           << vocab.arity(p)
           << " > 1; monadic Datalog requires unary intensional predicates"
           << " (defined by rule";
        for (size_t i = 0; i < rules.size(); ++i) {
          os << (i ? "," : "") << " " << rules[i];
        }
        os << ")";
        out.push_back(MakeDiagnostic(severity, check, os.str(), loc));
      }
      break;
    }
    case Fragment::kFrontierGuarded: {
      // Paper convention: every monadic program counts as frontier-guarded.
      if (InFragment(program, Fragment::kMonadic)) break;
      for (size_t ri = 0; ri < program.rules().size(); ++ri) {
        const Rule& rule = program.rules()[ri];
        if (rule.head.args.empty()) continue;  // vacuously guarded
        bool guarded = false;
        std::vector<int> edb_atoms;
        for (size_t ai = 0; ai < rule.body.size(); ++ai) {
          const QAtom& a = rule.body[ai];
          if (program.IsIdb(a.pred)) continue;  // guard must be extensional
          edb_atoms.push_back(static_cast<int>(ai));
          bool covers = true;
          for (VarId v : rule.head.args) {
            if (std::find(a.args.begin(), a.args.end(), v) == a.args.end()) {
              covers = false;
              break;
            }
          }
          if (covers) {
            guarded = true;
            break;
          }
        }
        if (guarded) continue;
        SourceLoc loc = RuleLoc(program, static_cast<int>(ri));
        loc.atoms = edb_atoms;
        std::unordered_set<VarId> seen;
        for (VarId v : rule.head.args) {
          if (seen.insert(v).second) loc.vars.push_back(rule.var_names[v]);
        }
        std::ostringstream os;
        os << "head variables of rule " << ri << " {";
        for (size_t i = 0; i < loc.vars.size(); ++i) {
          os << (i ? "," : "") << loc.vars[i];
        }
        os << "} are not covered by any single EDB body atom";
        if (edb_atoms.empty()) {
          os << " (the body has no EDB atoms)";
        } else {
          os << "; candidate guards:";
          for (int ai : edb_atoms) {
            os << " " << AtomSignature(vocab, rule.body[ai]) << "[atom " << ai
               << "]";
          }
        }
        out.push_back(MakeDiagnostic(severity, check, os.str(), loc));
      }
      break;
    }
    case Fragment::kNonRecursive: {
      const Stratification strat = Stratify(program);
      for (size_t ri = 0; ri < program.rules().size(); ++ri) {
        const std::vector<int>& rec_atoms = strat.recursive_atoms[ri];
        if (rec_atoms.empty()) continue;
        const Rule& rule = program.rules()[ri];
        SourceLoc loc = RuleLoc(program, static_cast<int>(ri));
        loc.atoms = rec_atoms;
        std::ostringstream os;
        os << "rule " << ri << " recurses: " << vocab.name(rule.head.pred)
           << " depends cyclically on";
        for (int ai : rec_atoms) {
          os << " " << AtomSignature(vocab, rule.body[ai]) << "[atom " << ai
             << "]";
        }
        out.push_back(MakeDiagnostic(severity, check, os.str(), loc));
      }
      break;
    }
  }
  return out;
}

bool InFragment(const Program& program, Fragment fragment) {
  return FragmentViolations(program, fragment).empty();
}

void CheckRuleSafety(const Rule& rule, int rule_index,
                     std::vector<Diagnostic>* out) {
  std::unordered_set<VarId> reported;
  for (VarId v : rule.head.args) {
    if (reported.count(v)) continue;
    bool found = false;
    for (const QAtom& a : rule.body) {
      if (std::find(a.args.begin(), a.args.end(), v) != a.args.end()) {
        found = true;
        break;
      }
    }
    if (found) continue;
    reported.insert(v);
    SourceLoc loc;
    loc.rule = rule_index;
    loc.line = rule.line;
    loc.col = rule.col;
    loc.atoms = {SourceLoc::kHead};
    loc.vars = {rule.var_names[v]};
    out->push_back(MakeDiagnostic(
        Severity::kError, "safety",
        "head variable '" + rule.var_names[v] +
            "' does not occur in the rule body (range restriction, Sec. 2)",
        loc));
  }
}

void CheckRuleArity(const Rule& rule, int rule_index, const Vocabulary& vocab,
                    std::vector<Diagnostic>* out) {
  auto check_atom = [&](const QAtom& a, int atom_index) {
    SourceLoc loc;
    loc.rule = rule_index;
    loc.line = rule.line;
    loc.col = rule.col;
    loc.atoms = {atom_index};
    if (a.pred == kNoPred || a.pred >= vocab.size()) {
      out->push_back(MakeDiagnostic(Severity::kError, "arity",
                                    "atom uses a predicate id outside the "
                                    "vocabulary",
                                    loc));
      return;
    }
    if (vocab.arity(a.pred) != static_cast<int>(a.args.size())) {
      std::ostringstream os;
      os << "atom " << AtomSignature(vocab, a) << " used with "
         << a.args.size() << " argument(s)";
      out->push_back(
          MakeDiagnostic(Severity::kError, "arity", os.str(), loc));
    }
  };
  check_atom(rule.head, SourceLoc::kHead);
  for (size_t ai = 0; ai < rule.body.size(); ++ai) {
    check_atom(rule.body[ai], static_cast<int>(ai));
  }
}

namespace {

void SafetyCheck(const ProgramAnalyzer::Input& in,
                 std::vector<Diagnostic>* out) {
  for (size_t ri = 0; ri < in.program.rules().size(); ++ri) {
    CheckRuleSafety(in.program.rules()[ri], static_cast<int>(ri), out);
  }
}

void ArityCheck(const ProgramAnalyzer::Input& in,
                std::vector<Diagnostic>* out) {
  for (size_t ri = 0; ri < in.program.rules().size(); ++ri) {
    CheckRuleArity(in.program.rules()[ri], static_cast<int>(ri),
                   *in.program.vocab(), out);
  }
}

void ReachabilityCheck(const ProgramAnalyzer::Input& in,
                       std::vector<Diagnostic>* out) {
  if (!in.options.goal) return;
  const Program& program = in.program;
  PredId goal = *in.options.goal;
  if (!program.IsIdb(goal)) {
    SourceLoc loc;
    out->push_back(MakeDiagnostic(
        Severity::kError, "goal",
        "goal predicate " + program.vocab()->name(goal) +
            " is not the head of any rule",
        loc));
    return;
  }
  // Breadth-first from the goal over the IDB atoms of rule bodies.
  std::unordered_set<PredId> reached{goal};
  std::queue<PredId> frontier;
  frontier.push(goal);
  while (!frontier.empty()) {
    const PredId p = frontier.front();
    frontier.pop();
    for (size_t ri : program.RulesFor(p)) {
      for (const QAtom& a : program.rules()[ri].body) {
        if (program.IsIdb(a.pred) && reached.insert(a.pred).second) {
          frontier.push(a.pred);
        }
      }
    }
  }
  std::vector<PredId> idbs(program.Idbs().begin(), program.Idbs().end());
  std::sort(idbs.begin(), idbs.end());
  for (PredId p : idbs) {
    if (reached.count(p)) continue;
    std::vector<size_t> rules = program.RulesFor(p);
    SourceLoc loc =
        RuleLoc(program, rules.empty() ? -1 : static_cast<int>(rules[0]));
    out->push_back(MakeDiagnostic(
        Severity::kWarning, "unused-predicate",
        "IDB predicate " + program.vocab()->name(p) +
            " is not reachable from the goal " +
            program.vocab()->name(goal) + " (dead code)",
        loc));
    for (size_t ri : rules) {
      SourceLoc rloc = RuleLoc(program, static_cast<int>(ri));
      out->push_back(MakeDiagnostic(
          Severity::kWarning, "unreachable-rule",
          "rule " + std::to_string(ri) + " defines unreachable predicate " +
              program.vocab()->name(p),
          rloc));
    }
  }
}

void SingletonVariableCheck(const ProgramAnalyzer::Input& in,
                            std::vector<Diagnostic>* out) {
  for (size_t ri = 0; ri < in.program.rules().size(); ++ri) {
    const Rule& rule = in.program.rules()[ri];
    // A singleton in a single-atom body is a plain projection; only
    // multi-atom bodies make a lone variable look like a mistyped join.
    if (rule.body.size() < 2) continue;
    std::vector<int> count(rule.num_vars(), 0);
    std::vector<int> first_atom(rule.num_vars(), SourceLoc::kHead);
    for (VarId v : rule.head.args) ++count[v];
    for (size_t ai = 0; ai < rule.body.size(); ++ai) {
      for (VarId v : rule.body[ai].args) {
        if (count[v] == 0) first_atom[v] = static_cast<int>(ai);
        ++count[v];
      }
    }
    for (size_t v = 0; v < rule.num_vars(); ++v) {
      if (count[v] != 1) continue;
      const std::string& name = rule.var_names[v];
      if (!name.empty() && name[0] == '_') continue;  // deliberate
      SourceLoc loc = RuleLoc(in.program, static_cast<int>(ri));
      loc.atoms = {first_atom[v]};
      loc.vars = {name};
      out->push_back(MakeDiagnostic(
          Severity::kWarning, "singleton-variable",
          "variable '" + name + "' occurs only once in rule " +
              std::to_string(ri) +
              " (possible typo; prefix with '_' if deliberate)",
          loc));
    }
  }
}

void RecursionStructureCheck(const ProgramAnalyzer::Input& in,
                             std::vector<Diagnostic>* out) {
  RecursionReport report = AnalyzeRecursion(in.program);
  std::ostringstream os;
  os << report.num_strata << " strat" << (report.num_strata == 1 ? "um" : "a");
  if (report.recursive) {
    os << "; recursive IDBs:";
    for (PredId p : report.cyclic_idbs) {
      os << " " << in.program.vocab()->name(p);
    }
    os << "; recursion is " << (report.linear ? "linear" : "non-linear");
  } else {
    os << "; no recursion (the query is equivalent to a UCQ)";
  }
  out->push_back(
      MakeDiagnostic(Severity::kNote, "recursion-structure", os.str()));
}

void FragmentCheck(Fragment fragment, const ProgramAnalyzer::Input& in,
                   std::vector<Diagnostic>* out) {
  bool required =
      std::find(in.options.required_fragments.begin(),
                in.options.required_fragments.end(),
                fragment) != in.options.required_fragments.end();
  if (!required && !in.options.fragment_notes) return;
  Severity severity = required ? Severity::kError : Severity::kNote;
  std::vector<Diagnostic> violations =
      FragmentViolations(in.program, fragment, severity);
  out->insert(out->end(), violations.begin(), violations.end());
}

void PlanLintCheck(const ProgramAnalyzer::Input& in,
                   std::vector<Diagnostic>* out) {
  const Program& program = in.program;
  // Reuse the caller's compiled program when provided (mondet_cli passes
  // the one it is about to evaluate, so lint and run judge identical
  // plans); otherwise compile a throwaway one.
  std::optional<CompiledProgram> local;
  const CompiledProgram* compiled = in.options.compiled;
  if (compiled == nullptr) {
    local.emplace(program);
    compiled = &*local;
  }
  for (const JoinOrderDesc& desc : compiled->DescribePlans()) {
    const Rule& rule = program.rules()[desc.rule];
    std::vector<bool> bound(rule.num_vars(), false);
    bool anything_bound = false;
    if (desc.delta_atom >= 0) {
      for (VarId v : rule.body[desc.delta_atom].args) bound[v] = true;
      anything_bound = true;
    }
    for (size_t k = 0; k < desc.order.size(); ++k) {
      const QAtom& atom = rule.body[desc.order[k]];
      bool shares = false;
      for (VarId v : atom.args) {
        if (bound[v]) shares = true;
      }
      // The first atom of a full join is the scan; every later atom (and
      // every atom after a delta seed) should share a bound variable, or
      // the join degenerates to a cross product.
      if (anything_bound && !shares && !atom.args.empty()) {
        SourceLoc loc = RuleLoc(program, static_cast<int>(desc.rule));
        loc.atoms = {static_cast<int>(desc.order[k])};
        std::ostringstream os;
        os << "join step " << k << " of rule " << desc.rule
           << (desc.delta_atom >= 0
                   ? " (delta seat " + std::to_string(desc.delta_atom) + ")"
                   : "")
           << " joins " << AtomSignature(*program.vocab(), atom)
           << " with zero bound positions (cross product)";
        if (!desc.est_rows.empty()) {
          os << "; est ~" << desc.est_rows[k] << " intermediate rows";
        }
        out->push_back(MakeDiagnostic(Severity::kWarning,
                                      "plan-cross-product", os.str(), loc));
      }
      for (VarId v : atom.args) bound[v] = true;
      if (!atom.args.empty()) anything_bound = true;
    }
  }
}

// --- Abstract-interpretation dataflow checks (analysis/dataflow.h). --------
// Each check recomputes the analysis it needs: the fixpoints are linear in
// the program (emptiness) or pairwise over rules of one head predicate
// (subsumption), which is negligible at lint scale, and stateless checks
// keep the registry trivially re-orderable.

void AlwaysEmptyPredicateCheck(const ProgramAnalyzer::Input& in,
                               std::vector<Diagnostic>* out) {
  EmptinessResult emptiness = AnalyzeEmptiness(in.program);
  for (PredId p : emptiness.empty_idbs) {
    std::vector<size_t> rules = in.program.RulesFor(p);
    SourceLoc loc =
        RuleLoc(in.program, rules.empty() ? -1 : static_cast<int>(rules[0]));
    loc.atoms = {SourceLoc::kHead};
    std::ostringstream os;
    os << "IDB predicate " << in.program.vocab()->name(p)
       << " can never derive a fact: every rule defining it is dead"
       << " (rule";
    for (size_t i = 0; i < rules.size(); ++i) {
      os << (i ? "," : "") << " " << rules[i];
    }
    os << ")";
    out->push_back(MakeDiagnostic(Severity::kWarning,
                                  "always-empty-predicate", os.str(), loc));
  }
}

void DeadRuleCheck(const ProgramAnalyzer::Input& in,
                   std::vector<Diagnostic>* out) {
  EmptinessResult emptiness = AnalyzeEmptiness(in.program);
  for (size_t ri = 0; ri < emptiness.rule_dead.size(); ++ri) {
    if (!emptiness.rule_dead[ri]) continue;
    const DeadRuleReason& reason = emptiness.dead_reasons[ri];
    SourceLoc loc = RuleLoc(in.program, static_cast<int>(ri));
    if (reason.atom >= 0) loc.atoms = {reason.atom};
    out->push_back(MakeDiagnostic(
        Severity::kWarning, "dead-rule",
        "rule " + std::to_string(ri) + " can never fire: " + reason.detail,
        loc));
  }
}

void SubsumedRuleCheck(const ProgramAnalyzer::Input& in,
                       std::vector<Diagnostic>* out) {
  SubsumptionResult sub = AnalyzeSubsumption(in.program);
  for (size_t ri = 0; ri < sub.subsumed_by.size(); ++ri) {
    if (sub.subsumed_by[ri] < 0) continue;
    SourceLoc loc = RuleLoc(in.program, static_cast<int>(ri));
    loc.atoms = {SourceLoc::kHead};
    std::ostringstream os;
    os << "rule " << ri << " is subsumed by rule " << sub.subsumed_by[ri]
       << ": every fact it derives, rule " << sub.subsumed_by[ri]
       << " derives from the same facts; it can be removed";
    out->push_back(
        MakeDiagnostic(Severity::kWarning, "subsumed-rule", os.str(), loc));
  }
}

void RedundantBodyAtomCheck(const ProgramAnalyzer::Input& in,
                            std::vector<Diagnostic>* out) {
  SubsumptionResult sub = AnalyzeSubsumption(in.program);
  for (size_t ri = 0; ri < sub.redundant_atoms.size(); ++ri) {
    for (int ai : sub.redundant_atoms[ri]) {
      const Rule& rule = in.program.rules()[ri];
      SourceLoc loc = RuleLoc(in.program, static_cast<int>(ri));
      loc.atoms = {ai};
      std::ostringstream os;
      os << "body atom " << ai << " ("
         << AtomSignature(*in.program.vocab(), rule.body[ai]) << ") of rule "
         << ri << " is implied by the rest of the body; removing it leaves"
         << " an equivalent rule";
      out->push_back(MakeDiagnostic(Severity::kWarning, "redundant-body-atom",
                                    os.str(), loc));
    }
  }
}

void UnboundAdornmentCheck(const ProgramAnalyzer::Input& in,
                           std::vector<Diagnostic>* out) {
  if (!in.options.goal) return;
  const Program& program = in.program;
  if (!program.IsIdb(*in.options.goal)) return;  // "goal" check reports it
  AdornmentResult ad = AnalyzeAdornments(program, *in.options.goal);
  // A nullary goal binds nothing, so all-free call patterns are the only
  // possibility everywhere — vacuous, not a finding.
  if (!ad.goal_binds) return;
  for (const auto& [site, patterns] : ad.atom_calls) {
    auto [ri, ai] = site;
    const QAtom& atom = program.rules()[ri].body[ai];
    if (atom.args.empty()) continue;
    bool all_free = true;
    for (const std::string& p : patterns) {
      if (p.find('b') != std::string::npos) all_free = false;
    }
    if (!all_free) continue;
    SourceLoc loc = RuleLoc(program, static_cast<int>(ri));
    loc.atoms = {ai};
    std::ostringstream os;
    os << "IDB atom " << AtomSignature(*program.vocab(), atom)
       << " at rule " << ri << " is only ever called with no bound"
       << " arguments (adornment '" << std::string(atom.args.size(), 'f')
       << "'): bindings from the goal "
       << program.vocab()->name(*in.options.goal)
       << " never reach it, so magic-sets specialization cannot restrict"
       << " its evaluation";
    out->push_back(MakeDiagnostic(Severity::kNote, "unbound-adornment",
                                  os.str(), loc));
  }
}

}  // namespace

ProgramAnalyzer::ProgramAnalyzer() {
  AddCheck("safety", SafetyCheck);
  AddCheck("arity", ArityCheck);
  AddCheck("reachability", ReachabilityCheck);
  AddCheck("singleton-variable", SingletonVariableCheck);
  AddCheck("recursion-structure", RecursionStructureCheck);
  AddCheck("fragment-non-recursive", [](const Input& in, auto* out) {
    FragmentCheck(Fragment::kNonRecursive, in, out);
  });
  AddCheck("fragment-monadic", [](const Input& in, auto* out) {
    FragmentCheck(Fragment::kMonadic, in, out);
  });
  AddCheck("fragment-frontier-guarded", [](const Input& in, auto* out) {
    FragmentCheck(Fragment::kFrontierGuarded, in, out);
  });
  AddCheck("plan-lints", PlanLintCheck);
  AddCheck("always-empty-predicate", AlwaysEmptyPredicateCheck);
  AddCheck("dead-rule", DeadRuleCheck);
  AddCheck("subsumed-rule", SubsumedRuleCheck);
  AddCheck("redundant-body-atom", RedundantBodyAtomCheck);
  AddCheck("unbound-adornment", UnboundAdornmentCheck);
}

void ProgramAnalyzer::AddCheck(std::string id, CheckFn fn) {
  checks_.push_back({std::move(id), std::move(fn)});
}

bool ProgramAnalyzer::DisableCheck(const std::string& id) {
  size_t before = checks_.size();
  checks_.erase(std::remove_if(checks_.begin(), checks_.end(),
                               [&](const Check& c) { return c.id == id; }),
                checks_.end());
  if (checks_.size() == before) return false;
  // Remember what was switched off: Analyze reports it so result
  // consumers can tell a clean check apart from one that never ran.
  if (std::find(disabled_ids_.begin(), disabled_ids_.end(), id) ==
      disabled_ids_.end()) {
    disabled_ids_.push_back(id);
  }
  return true;
}

std::vector<std::string> ProgramAnalyzer::CheckIds() const {
  std::vector<std::string> out;
  out.reserve(checks_.size());
  for (const Check& c : checks_) out.push_back(c.id);
  return out;
}

AnalysisResult ProgramAnalyzer::Analyze(const Program& program,
                                        const AnalysisOptions& options) const {
  AnalysisResult result;
  result.disabled_checks = disabled_ids_;
  Input in{program, options};
  for (const Check& c : checks_) c.fn(in, &result.diagnostics);
  result.fragments.non_recursive =
      InFragment(program, Fragment::kNonRecursive);
  result.fragments.monadic = InFragment(program, Fragment::kMonadic);
  result.fragments.frontier_guarded =
      InFragment(program, Fragment::kFrontierGuarded);
  result.recursion = AnalyzeRecursion(program);
  return result;
}

AnalysisResult AnalyzeProgram(const Program& program,
                              const AnalysisOptions& options) {
  static const ProgramAnalyzer analyzer;
  return analyzer.Analyze(program, options);
}

}  // namespace mondet
