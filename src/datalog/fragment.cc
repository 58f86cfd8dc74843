#include "datalog/fragment.h"

#include <algorithm>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "cq/ucq.h"
#include "datalog/approximation.h"
#include "datalog/eval_plan.h"
#include "datalog/strata.h"

namespace mondet {

bool IsMonadic(const Program& program) {
  return InFragment(program, Fragment::kMonadic);
}

bool IsFrontierGuarded(const Program& program) {
  return InFragment(program, Fragment::kFrontierGuarded);
}

bool IsNonRecursive(const Program& program) {
  const Stratification strat = Stratify(program);
  return std::none_of(
      strat.strata.begin(), strat.strata.end(),
      [](const Stratification::Stratum& st) { return st.recursive; });
}

BoundedContainment CheckDatalogContainmentBounded(const DatalogQuery& q1,
                                                  const DatalogQuery& q2,
                                                  int depth,
                                                  size_t max_expansions) {
  MONDET_CHECK(q1.arity() == q2.arity());
  BoundedContainment result;
  // q2 is evaluated on every expansion; compile it once.
  const CompiledProgram compiled_q2(q2.program);
  bool complete = EnumerateExpansions(
      q1, depth, max_expansions, [&](const Expansion& e) {
        ++result.expansions_checked;
        if (!compiled_q2.Eval(e.inst).HasFact(q2.goal, e.frontier)) {
          result.refuted = true;
          result.witness = e.inst;
          return false;
        }
        return true;
      });
  result.exhaustive =
      complete && IsNonRecursive(q1.program) &&
      depth >= static_cast<int>(q1.program.Idbs().size()) + 1;
  return result;
}

std::optional<UCQ> TryUnfoldToUcq(const DatalogQuery& query,
                                  size_t max_disjuncts,
                                  std::vector<Diagnostic>* diags) {
  std::vector<Diagnostic> recursion =
      FragmentViolations(query.program, Fragment::kNonRecursive);
  if (!recursion.empty()) {
    if (diags) {
      diags->insert(diags->end(), recursion.begin(), recursion.end());
    }
    return std::nullopt;
  }
  // A non-recursive derivation tree never repeats a predicate on a path,
  // so depth <= |IDBs| + 1 covers every expansion.
  int depth = static_cast<int>(query.program.Idbs().size()) + 1;
  UCQ out(query.program.vocab());
  bool exhaustive = EnumerateExpansions(
      query, depth, max_disjuncts, [&](const Expansion& e) {
        out.AddDisjunct(ExpansionToCq(e));
        return true;
      });
  if (!exhaustive) {
    if (diags) {
      diags->push_back(MakeDiagnostic(
          Severity::kError, "unfold-overflow",
          "unfolding of " + query.program.vocab()->name(query.goal) +
              " exceeds the cap of " + std::to_string(max_disjuncts) +
              " disjuncts (got " + std::to_string(out.disjuncts().size()) +
              " before stopping); raise max_disjuncts or rewrite the "
              "program"));
    }
    return std::nullopt;
  }
  return out;
}

UCQ UnfoldToUcq(const DatalogQuery& query, size_t max_disjuncts) {
  std::vector<Diagnostic> diags;
  std::optional<UCQ> out = TryUnfoldToUcq(query, max_disjuncts, &diags);
  if (!out) {
    std::fprintf(stderr, "%s", FormatDiagnostics(diags).c_str());
    MONDET_CHECK(out.has_value());
  }
  return *std::move(out);
}

}  // namespace mondet
