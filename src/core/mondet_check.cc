#include "core/mondet_check.h"

#include <algorithm>

#include "automata/product_walk.h"
#include "base/check.h"
#include "core/cq_automaton.h"
#include "core/forward.h"
#include "core/test_walk.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/fragment.h"

namespace mondet {

MonDetResult CheckMonotonicDeterminacy(const DatalogQuery& query,
                                       const ViewSet& views,
                                       const MonDetOptions& options) {
  const VocabularyPtr& vocab = query.program.vocab();
  MonDetResult result;

  // Validate the inputs through the analyzer: user-reachable precondition
  // failures return kInvalidInput with witnesses instead of aborting or
  // silently computing garbage.
  if (query.program.vocab().get() != views.vocab().get()) {
    result.diagnostics.push_back(MakeDiagnostic(
        Severity::kError, "view-vocabulary",
        "query and views are defined over different vocabularies"));
  } else {
    if (!query.program.IsIdb(query.goal)) {
      result.diagnostics.push_back(MakeDiagnostic(
          Severity::kError, "goal",
          "goal predicate " + vocab->name(query.goal) +
              " is not the head of any rule"));
    }
    if (options.require_query_fragment) {
      std::vector<Diagnostic> witnesses = FragmentViolations(
          query.program, *options.require_query_fragment);
      result.diagnostics.insert(result.diagnostics.end(), witnesses.begin(),
                                witnesses.end());
    }
    if (options.require_view_fragment) {
      for (const View& v : views.views()) {
        std::vector<Diagnostic> witnesses = FragmentViolations(
            v.definition.program, *options.require_view_fragment);
        for (Diagnostic& d : witnesses) {
          d.message = "view " + vocab->name(v.pred) + ": " + d.message;
        }
        result.diagnostics.insert(result.diagnostics.end(), witnesses.begin(),
                                  witnesses.end());
      }
    }
  }
  if (HasErrors(result.diagnostics)) {
    result.verdict = Verdict::kInvalidInput;
    return result;
  }

  // The query program is evaluated on every candidate D'; compile it once.
  CompiledProgram compiled_query(query.program);

  // Pre-enumerate view definition expansions.
  const auto [view_exps, views_exhaustive] = ViewExpansions(
      views, options.view_depth, options.max_tests_per_expansion);

  bool query_exhaustive =
      IsNonRecursive(query.program) &&
      options.query_depth >=
          static_cast<int>(query.program.Idbs().size()) + 1;

  // Collect the query approximations up front; the search then walks one
  // bounded block of (view-choice) tests per expansion, in expansion
  // order.
  std::vector<Expansion> expansions;
  bool enumeration_complete = EnumerateExpansions(
      query, options.query_depth, options.max_query_expansions,
      [&](const Expansion& qi) {
        expansions.push_back(qi);
        return true;
      });

  bool all_tests_built = true;
  size_t tests_before = 0;  // Σ block sizes of completed expansions

  for (size_t ei = 0; ei < expansions.size(); ++ei) {
    const Expansion& qi = expansions[ei];

    // The walk takes the image facts in (pred, args) order, so the test
    // numbering — and with it tests_run and the reported counterexample —
    // is a function of the image's fact *set*, not of the order the
    // evaluator derived it in.
    std::vector<Fact> image = views.Image(qi.inst).AllFacts();
    std::sort(image.begin(), image.end());

    // Per-fact expansion choices and the block of tests they span.
    std::vector<const std::vector<Expansion>*> options_per_fact;
    options_per_fact.reserve(image.size());
    for (const Fact& f : image) {
      options_per_fact.push_back(&view_exps.at(f.pred));
    }
    const size_t block = TestBlockSize(
        options_per_fact, options.max_tests_per_expansion, &all_tests_built);

    if (block == 0) continue;  // nothing to walk
    TestBlockWalk walk(image, qi.inst.num_elements(), qi.frontier,
                       query.goal, compiled_query,
                       std::move(options_per_fact), block);
    const size_t t_fail = walk.Run();
    result.evaluations += walk.evaluations();
    if (t_fail != kNoTest) {
      // Pruned tests count as run: the walk stops where a test-by-test
      // scan would have.
      result.expansions_tried = ei + 1;
      result.tests_run = tests_before + t_fail + 1;
      result.failure.emplace(qi, walk.TakeFailure());
      result.verdict = Verdict::kNotDetermined;
      return result;
    }
    tests_before += block;
  }

  result.expansions_tried = expansions.size();
  result.tests_run = tests_before;
  if (query_exhaustive && views_exhaustive && enumeration_complete &&
      all_tests_built) {
    result.verdict = Verdict::kDetermined;
  } else {
    result.verdict = Verdict::kUnknownBounded;
  }
  return result;
}

ContainmentResult DatalogContainedInUcq(const DatalogQuery& query,
                                        const UCQ& ucq) {
  ContainmentResult result;
  ForwardResult fwd = ApproximationAutomaton(query);
  const Nta& nta = fwd.automaton;

  // One pruned walk decides and, on failure, yields the counterexample:
  // the derivation of its first bad pair.
  UcqMatchAutomaton dp(ucq, fwd.width);
  ProductWalkResult w = ProductWalk(nta, dp);
  result.pairs_explored = w.pairs.size();
  result.transition_visits = w.transition_visits;
  result.subsumption_prunes = w.subsumption_prunes;
  result.macrostates_visited = dp.num_states();
  result.contained = w.first_bad < 0;
  if (!result.contained) {
    result.counterexample = BuildDerivedCode(nta, w.derivs, w.first_bad);
  }
  return result;
}

DatalogQuery Thm5Query(const CQ& query, const ViewSet& views) {
  const VocabularyPtr& vocab = query.vocab();
  Instance canon = query.CanonicalDb();
  Instance image = views.Image(canon);
  Program program = views.CombinedProgram();
  PredId goal = vocab->AddPredicate("Thm5.Goal", 0);
  Rule goal_rule;
  for (size_t e = 0; e < canon.num_elements(); ++e) {
    goal_rule.var_names.push_back(canon.element_name(static_cast<ElemId>(e)));
  }
  goal_rule.head = QAtom(goal, {});
  for (uint32_t fg = 0; fg < image.num_facts(); ++fg) {
    const FactView f = image.ViewAt(fg);
    goal_rule.body.push_back(
        QAtom(f.pred, std::vector<VarId>(f.args.begin(), f.args.end())));
  }
  program.AddRule(std::move(goal_rule));
  return DatalogQuery(std::move(program), goal);
}

Thm5Result CheckCqOverDatalogViews(const CQ& query, const ViewSet& views) {
  MONDET_CHECK(query.free_vars().empty());
  UCQ target(query.vocab());
  target.AddDisjunct(query);
  ContainmentResult contained =
      DatalogContainedInUcq(Thm5Query(query, views), target);

  Thm5Result out;
  out.determined = contained.contained;
  out.pairs_explored = contained.pairs_explored;
  out.transition_visits = contained.transition_visits;
  out.macrostates_visited = contained.macrostates_visited;
  out.subsumption_prunes = contained.subsumption_prunes;
  out.counterexample = std::move(contained.counterexample);
  return out;
}

}  // namespace mondet
