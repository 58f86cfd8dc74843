#include "analysis/dataflow.h"

#include <deque>
#include <sstream>

#include "base/homomorphism.h"
#include "datalog/strata.h"

namespace mondet {

namespace {

/// Meet of two position values (set intersection; top is the identity).
/// Returns true when the result changed relative to `*into`.
void Meet(PosAbstract* into, const PosAbstract& v) {
  if (v.top) return;
  if (into->top) {
    into->top = false;
    into->consts = v.consts;
    return;
  }
  std::vector<ElemId> out;
  std::set_intersection(into->consts.begin(), into->consts.end(),
                        v.consts.begin(), v.consts.end(),
                        std::back_inserter(out));
  into->consts = std::move(out);
}

/// The shared core of Transfer and the dead-rule explanation: abstract
/// evaluation of one rule body. Returns false when the body is abstractly
/// unsatisfiable; `reason`, when non-null, receives the first failing
/// atom and a human-readable why.
bool EvalRuleBody(const Program& program, const Rule& rule,
                  const std::unordered_map<PredId, PredAbstract>& env,
                  std::vector<PosAbstract>* var_val, DeadRuleReason* reason) {
  const Vocabulary& vocab = *program.vocab();
  var_val->assign(rule.num_vars(), PosAbstract{true, {}});
  for (size_t ai = 0; ai < rule.body.size(); ++ai) {
    const QAtom& a = rule.body[ai];
    auto it = env.find(a.pred);
    if (it == env.end()) continue;  // outside the vocabulary: assume top
    const PredAbstract& pv = it->second;
    if (!pv.nonempty) {
      if (reason != nullptr) {
        reason->atom = static_cast<int>(ai);
        reason->detail = "body atom " + std::to_string(ai) + " is over " +
                         vocab.name(a.pred) +
                         ", which is provably empty";
      }
      return false;
    }
    for (size_t j = 0; j < a.args.size() && j < pv.pos.size(); ++j) {
      VarId v = a.args[j];
      if (v >= var_val->size()) continue;  // malformed rule: stay sound
      PosAbstract& slot = (*var_val)[v];
      bool was_sat = slot.top || !slot.consts.empty();
      Meet(&slot, pv.pos[j]);
      if (was_sat && !slot.top && slot.consts.empty()) {
        if (reason != nullptr) {
          reason->atom = static_cast<int>(ai);
          reason->detail = "variable '" + rule.var_names[v] +
                           "' admits no value at body atom " +
                           std::to_string(ai) + " (" + vocab.name(a.pred) +
                           " position " + std::to_string(j) +
                           "): the possible value sets are disjoint";
        }
        return false;
      }
    }
  }
  return true;
}

/// Starting value of predicate `p`: bottom for IDBs and the EDB seed
/// (every position top) for extensional predicates — or, with a concrete
/// instance `edb`, the instance's actual per-position value sets (top
/// above kMaxTrackedConsts) for every predicate, bottom where it has no
/// facts. FPEval inputs may carry IDB facts too, and soundness requires
/// the seed to cover them (rule contributions join in on top).
PredAbstract Init(const Program& program, const Instance* edb, PredId p) {
  const Vocabulary& vocab = *program.vocab();
  auto arity = static_cast<size_t>(vocab.arity(p));
  PredAbstract out;
  if (edb != nullptr) {
    const uint32_t rows = edb->NumRows(p);
    if (rows == 0) return out;  // bottom: no fact in the input
    out.nonempty = true;
    out.pos.resize(arity);
    for (PosAbstract& pa : out.pos) pa.top = false;
    for (uint32_t row = 0; row < rows; ++row) {
      const std::span<const ElemId> fargs = edb->Args(p, row);
      for (size_t j = 0; j < arity && j < fargs.size(); ++j) {
        PosAbstract& pa = out.pos[j];
        if (pa.top) continue;
        auto it = std::lower_bound(pa.consts.begin(), pa.consts.end(),
                                   fargs[j]);
        if (it != pa.consts.end() && *it == fargs[j]) continue;
        if (pa.consts.size() >= kMaxTrackedConsts) {
          pa.top = true;
          pa.consts.clear();
        } else {
          pa.consts.insert(it, fargs[j]);
        }
      }
    }
    return out;
  }
  if (program.IsIdb(p)) return out;  // bottom: only rules populate IDBs
  // Unconstrained EDB predicate: possibly nonempty, every position top.
  out.nonempty = true;
  out.pos.assign(arity, PosAbstract{true, {}});
  return out;
}

/// Abstract evaluation of one rule under `env` (total over the program's
/// predicates). Returns false when the rule provably contributes nothing;
/// otherwise fills `*head`.
bool Transfer(const Program& program, const Rule& rule,
              const std::unordered_map<PredId, PredAbstract>& env,
              PredAbstract* head) {
  std::vector<PosAbstract> var_val;
  if (!EvalRuleBody(program, rule, env, &var_val, nullptr)) return false;
  std::vector<bool> in_body(rule.num_vars(), false);
  for (const QAtom& a : rule.body) {
    for (VarId v : a.args) {
      if (v < in_body.size()) in_body[v] = true;
    }
  }
  head->nonempty = true;
  head->pos.resize(rule.head.args.size());
  for (size_t i = 0; i < rule.head.args.size(); ++i) {
    VarId v = rule.head.args[i];
    // A head variable missing from the body is a safety violation; the
    // analysis stays sound by assuming it can be anything.
    if (v < var_val.size() && in_body[v]) {
      head->pos[i] = var_val[v];
    } else {
      head->pos[i] = PosAbstract{true, {}};
    }
  }
  return true;
}

/// Least-upper-bound accumulation; returns true iff *into changed. The
/// lattice has finite height, which makes the fixpoint terminate.
bool Join(PredAbstract* into, const PredAbstract& v) {
  if (!v.nonempty) return false;
  if (!into->nonempty) {
    *into = v;
    return true;
  }
  if (into->pos.size() != v.pos.size()) {
    // Arity mismatch (ill-formed program): saturate to all-top.
    bool was_top = true;
    for (const PosAbstract& pa : into->pos) was_top &= pa.top;
    if (was_top) return false;
    for (PosAbstract& pa : into->pos) pa = PosAbstract{true, {}};
    return true;
  }
  bool changed = false;
  for (size_t i = 0; i < into->pos.size(); ++i) {
    PosAbstract& a = into->pos[i];
    const PosAbstract& b = v.pos[i];
    if (a.top) continue;
    if (b.top) {
      a = PosAbstract{true, {}};
      changed = true;
      continue;
    }
    std::vector<ElemId> merged;
    std::set_union(a.consts.begin(), a.consts.end(), b.consts.begin(),
                   b.consts.end(), std::back_inserter(merged));
    if (merged.size() > kMaxTrackedConsts) {
      a = PosAbstract{true, {}};
      changed = true;
    } else if (merged != a.consts) {
      a.consts = std::move(merged);
      changed = true;
    }
  }
  return changed;
}

}  // namespace

// --- Emptiness + constant-set analysis. ------------------------------------

EmptinessResult AnalyzeEmptiness(const Program& program, const Instance* edb) {
  EmptinessResult out;
  const Vocabulary& vocab = *program.vocab();
  for (PredId p = 0; p < static_cast<PredId>(vocab.size()); ++p) {
    out.preds.emplace(p, Init(program, edb, p));
  }
  // Dependency-first, each stratum to its own fixpoint: re-fire its rules
  // until a full sweep changes nothing.
  for (const Stratification::Stratum& st : Stratify(program).strata) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t ri : st.rules) {
        const Rule& rule = program.rules()[ri];
        PredAbstract head;
        if (Transfer(program, rule, out.preds, &head) &&
            Join(&out.preds.at(rule.head.pred), head)) {
          changed = true;
        }
      }
    }
  }
  out.rule_dead.assign(program.rules().size(), false);
  out.dead_reasons.assign(program.rules().size(), DeadRuleReason{});
  for (size_t ri = 0; ri < program.rules().size(); ++ri) {
    std::vector<PosAbstract> var_val;
    DeadRuleReason reason;
    if (!EvalRuleBody(program, program.rules()[ri], out.preds, &var_val,
                      &reason)) {
      out.rule_dead[ri] = true;
      out.dead_reasons[ri] = std::move(reason);
    }
  }
  std::vector<PredId> idbs(program.Idbs().begin(), program.Idbs().end());
  std::sort(idbs.begin(), idbs.end());
  for (PredId p : idbs) {
    if (out.IsEmpty(p)) out.empty_idbs.push_back(p);
  }
  return out;
}

// --- Binding-pattern / adornment analysis. ---------------------------------

AdornmentResult AnalyzeAdornments(const Program& program, PredId goal) {
  AdornmentResult res;
  const Vocabulary& vocab = *program.vocab();
  if (goal >= static_cast<PredId>(vocab.size()) || !program.IsIdb(goal)) {
    return res;
  }
  res.goal_binds = vocab.arity(goal) > 0;
  // Worklist over (predicate, adornment) call patterns; the goal is
  // called all-bound (its arguments are the query constants). At most
  // preds * 2^arity patterns; the saturation guard below caps pathological
  // wide-arity vocabularies.
  constexpr size_t kMaxPatterns = 4096;
  std::string goal_ad(static_cast<size_t>(vocab.arity(goal)), 'b');
  std::set<std::pair<PredId, std::string>> seen;
  std::deque<std::pair<PredId, std::string>> work;
  seen.emplace(goal, goal_ad);
  work.emplace_back(goal, goal_ad);
  res.calls[goal].insert(goal_ad);
  while (!work.empty()) {
    auto [p, ad] = work.front();
    work.pop_front();
    for (size_t ri : program.RulesFor(p)) {
      const Rule& rule = program.rules()[ri];
      if (rule.head.args.size() != ad.size()) continue;  // arity error
      std::vector<bool> bound(rule.num_vars(), false);
      for (size_t i = 0; i < ad.size(); ++i) {
        if (ad[i] == 'b' && rule.head.args[i] < bound.size()) {
          bound[rule.head.args[i]] = true;
        }
      }
      // Left-to-right sideways information passing: each atom is called
      // with the bindings accumulated so far, then binds its variables.
      for (size_t ai = 0; ai < rule.body.size(); ++ai) {
        const QAtom& a = rule.body[ai];
        if (program.IsIdb(a.pred)) {
          std::string aad;
          aad.reserve(a.args.size());
          for (VarId v : a.args) {
            aad += (v < bound.size() && bound[v]) ? 'b' : 'f';
          }
          res.calls[a.pred].insert(aad);
          res.atom_calls[{ri, static_cast<int>(ai)}].insert(aad);
          if (seen.size() < kMaxPatterns &&
              seen.emplace(a.pred, aad).second) {
            work.emplace_back(a.pred, aad);
          }
        }
        for (VarId v : a.args) {
          if (v < bound.size()) bound[v] = true;
        }
      }
    }
  }
  return res;
}

// --- Rule subsumption / redundancy. ----------------------------------------

namespace {

/// The rule body as an instance over the rule's variables: element v is
/// variable v, one fact per body atom. `skip_atom` (when >= 0) leaves
/// that atom out. The canonical-database encoding HomSearch containment
/// checks run on.
Instance BodyInstance(const Program& program, const Rule& rule,
                      int skip_atom = -1) {
  Instance inst(program.vocab());
  inst.EnsureElements(rule.num_vars());
  for (size_t ai = 0; ai < rule.body.size(); ++ai) {
    if (static_cast<int>(ai) == skip_atom) continue;
    const QAtom& a = rule.body[ai];
    std::vector<ElemId> args(a.args.begin(), a.args.end());
    inst.AddFact(a.pred, args);
  }
  return inst;
}

/// Does rule `general` derive, on every database state, a superset of
/// what rule `specific` derives? Holds iff there is a homomorphism from
/// general's body to specific's body mapping general's head arguments
/// onto specific's (uniform containment — sound under recursion).
bool Subsumes(const Rule& general, const Instance& general_body,
              const Rule& specific, const Instance& specific_body) {
  if (general.head.pred != specific.head.pred) return false;
  if (general.head.args.size() != specific.head.args.size()) return false;
  // The head mapping must be functional: a repeated variable in the
  // general head can only map onto a repeated variable in the specific.
  std::unordered_map<VarId, VarId> head_map;
  HomSearch::Fixed fixed;
  for (size_t i = 0; i < general.head.args.size(); ++i) {
    VarId from = general.head.args[i];
    VarId to = specific.head.args[i];
    auto it = head_map.find(from);
    if (it != head_map.end()) {
      if (it->second != to) return false;
      continue;
    }
    head_map.emplace(from, to);
    fixed.emplace_back(from, to);
  }
  return HomSearch(general_body, specific_body).Exists(fixed);
}

}  // namespace

SubsumptionResult AnalyzeSubsumption(const Program& program) {
  const std::vector<Rule>& rules = program.rules();
  SubsumptionResult out;
  out.subsumed_by.assign(rules.size(), -1);
  out.redundant_atoms.resize(rules.size());
  std::vector<Instance> bodies;
  bodies.reserve(rules.size());
  for (const Rule& r : rules) bodies.push_back(BodyInstance(program, r));

  for (size_t r1 = 0; r1 < rules.size(); ++r1) {
    // Whole-rule subsumption: the lowest-index distinct rule deriving a
    // superset. Of two equivalent rules only the later is marked, so the
    // set of marked rules is always droppable together.
    for (size_t r2 = 0; r2 < rules.size(); ++r2) {
      if (r2 == r1 || rules[r2].head.pred != rules[r1].head.pred) continue;
      if (!Subsumes(rules[r2], bodies[r2], rules[r1], bodies[r1])) {
        continue;
      }
      if (r2 > r1 &&
          Subsumes(rules[r1], bodies[r1], rules[r2], bodies[r2])) {
        continue;  // equivalent: the later rule gets marked instead
      }
      out.subsumed_by[r1] = static_cast<int>(r2);
      break;
    }
    // Per-atom redundancy: the body folds onto the body without the atom
    // while fixing the head variables, so dropping it is an equivalence.
    const Rule& rule = rules[r1];
    if (rule.body.size() < 2) continue;
    HomSearch::Fixed fixed;
    std::unordered_set<VarId> fixed_vars;
    for (VarId v : rule.head.args) {
      if (fixed_vars.insert(v).second) fixed.emplace_back(v, v);
    }
    for (size_t ai = 0; ai < rule.body.size(); ++ai) {
      Instance reduced = BodyInstance(program, rule, static_cast<int>(ai));
      if (HomSearch(bodies[r1], reduced).Exists(fixed)) {
        out.redundant_atoms[r1].push_back(static_cast<int>(ai));
      }
    }
  }
  return out;
}

// --- Combined result + rendering. ------------------------------------------

DataflowResult AnalyzeDataflow(const Program& program,
                               std::optional<PredId> goal,
                               const Instance* edb) {
  DataflowResult out;
  out.emptiness = AnalyzeEmptiness(program, edb);
  out.subsumption = AnalyzeSubsumption(program);
  if (goal) out.adornments = AnalyzeAdornments(program, *goal);
  return out;
}

namespace {

std::string ElemName(const Instance* edb, ElemId e) {
  if (edb != nullptr && e < edb->num_elements() &&
      !edb->element_name(e).empty()) {
    return edb->element_name(e);
  }
  return "e" + std::to_string(e);
}

std::string PosToString(const PosAbstract& pa, const Instance* edb) {
  if (pa.top) return "T";
  std::string out = "{";
  for (size_t i = 0; i < pa.consts.size(); ++i) {
    if (i) out += ",";
    out += ElemName(edb, pa.consts[i]);
  }
  return out + "}";
}

}  // namespace

std::string DescribeDataflow(const Program& program,
                             const DataflowResult& result,
                             const Instance* edb) {
  const Vocabulary& vocab = *program.vocab();
  std::ostringstream os;
  os << "dataflow: emptiness/constant-set fixpoint"
     << (edb != nullptr ? " (seeded from instance)" : "") << "\n";
  for (PredId p = 0; p < static_cast<PredId>(vocab.size()); ++p) {
    auto it = result.emptiness.preds.find(p);
    if (it == result.emptiness.preds.end()) continue;
    os << "  " << vocab.name(p) << "/" << vocab.arity(p)
       << (program.IsIdb(p) ? " idb: " : " edb: ");
    if (!it->second.nonempty) {
      os << "empty\n";
      continue;
    }
    os << "(";
    for (size_t j = 0; j < it->second.pos.size(); ++j) {
      if (j) os << ", ";
      os << PosToString(it->second.pos[j], edb);
    }
    os << ")\n";
  }
  for (size_t ri = 0; ri < result.emptiness.rule_dead.size(); ++ri) {
    if (!result.emptiness.rule_dead[ri]) continue;
    os << "  rule " << ri << ": dead ("
       << result.emptiness.dead_reasons[ri].detail << ")\n";
  }
  for (size_t ri = 0; ri < result.subsumption.subsumed_by.size(); ++ri) {
    if (result.subsumption.subsumed_by[ri] < 0) continue;
    os << "  rule " << ri << ": subsumed by rule "
       << result.subsumption.subsumed_by[ri] << "\n";
  }
  for (size_t ri = 0; ri < result.subsumption.redundant_atoms.size(); ++ri) {
    for (int ai : result.subsumption.redundant_atoms[ri]) {
      os << "  rule " << ri << ": body atom " << ai << " redundant\n";
    }
  }
  if (result.adornments) {
    os << "adornments (goal called all-bound):\n";
    for (const auto& [p, ads] : result.adornments->calls) {
      os << "  " << vocab.name(p) << ":";
      for (const std::string& ad : ads) {
        os << " " << (ad.empty() ? "()" : ad);
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace mondet
