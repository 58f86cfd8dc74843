#ifndef MONDET_CORE_MONDET_CHECK_H_
#define MONDET_CORE_MONDET_CHECK_H_

#include <optional>
#include <vector>

#include "analysis/analyzer.h"
#include "datalog/approximation.h"
#include "datalog/program.h"
#include "tree/code.h"
#include "views/view_set.h"

namespace mondet {

/// Outcome of a monotonic-determinacy check.
enum class Verdict {
  /// Every canonical test succeeds and the search space was exhausted:
  /// Q is monotonically determined over V.
  kDetermined,
  /// A failing canonical test was found: Q is NOT monotonically determined.
  kNotDetermined,
  /// All tests within the bounds succeeded but the enumeration was not
  /// exhaustive (recursive query/views or caps hit): no counterexample up
  /// to the bounds.
  kUnknownBounded,
  /// The inputs fail a precondition (non-Boolean query, vocabulary
  /// mismatch, required fragment violated): see MonDetResult::diagnostics
  /// for the witnesses. No tests were run.
  kInvalidInput,
};

/// A failing canonical test (Qi, D'): the approximation satisfies Q, its
/// inverse-expanded view image D' does not (Lemma 5).
struct FailingTest {
  Expansion approximation;
  Instance dprime;

  FailingTest(Expansion a, Instance d)
      : approximation(std::move(a)), dprime(std::move(d)) {}
};

struct MonDetOptions {
  /// Expansion depth for the query's CQ approximations.
  int query_depth = 4;
  /// Expansion depth for the view definitions during inverse application.
  int view_depth = 4;
  /// Cap on the number of query approximations considered.
  size_t max_query_expansions = 500;
  /// Cap on the number of D' instances per approximation.
  size_t max_tests_per_expansion = 2000;
  /// Table 2 preconditions: when set, the query/views must lie in the
  /// given fragment or the check returns kInvalidInput with the analyzer's
  /// witnesses instead of running (e.g. kFrontierGuarded for the Thm 4
  /// rows).
  std::optional<Fragment> require_query_fragment;
  std::optional<Fragment> require_view_fragment;
  /// Worker threads for the D'-test fan-out. 0 = the MONDET_THREADS
  /// environment variable, falling back to hardware concurrency
  /// (ResolveEvalThreads). The result — verdict, counterexample,
  /// tests_run, expansions_tried — is identical for every thread count.
  int num_threads = 0;
};

struct MonDetResult {
  Verdict verdict = Verdict::kUnknownBounded;
  std::optional<FailingTest> failure;
  size_t tests_run = 0;
  size_t expansions_tried = 0;
  /// Precondition violations when verdict == kInvalidInput.
  std::vector<Diagnostic> diagnostics;
};

/// The canonical-test procedure of Lemma 5: enumerates tests (Qi, D') and
/// evaluates Q on each D'. Sound refuter for all of Datalog; exact decision
/// when query and views are non-recursive and the bounds cover every
/// expansion (in particular: the NP-complete CQ/CQ case of [21] and the
/// Πp2 UCQ/UCQ case). The query must be Boolean.
MonDetResult CheckMonotonicDeterminacy(const DatalogQuery& query,
                                       const ViewSet& views,
                                       const MonDetOptions& options = {});

/// Options for the Datalog ⊑ UCQ containment walk (and hence Thm 5).
struct ContainmentOptions {
  /// Antichain subsumption pruning over the (NTA state, DP state) search:
  /// a new pair whose match sets contain an already-visited pair's for
  /// the same NTA state is discarded — DP transitions are monotone in
  /// match-set inclusion and rejection is downward closed, so a
  /// counterexample reachable through the pruned pair is also reachable
  /// through the kept one. DP states are bitsets over an interned match
  /// universe, so each inclusion test is a word-wise AND-NOT; the pruned
  /// walk ties the full fixpoint on small inputs and is faster on larger
  /// ones (docs/EVALUATION.md, "The Thm 5 path").
  /// Verdicts and counterexamples are bit-identical on or off (only the
  /// work counters differ; on failure an unpruned early-exit pass
  /// re-derives the exact witness the escape hatch produces). Off = the
  /// full fixpoint, kept as the explicit escape hatch for differential
  /// testing.
  bool antichain = true;
};

/// Exact decision for a Boolean CQ query over arbitrary Datalog views
/// (Thm 5, 2ExpTime): builds Q'' = Π_V ∪ {Goal'' ← V(Q)} and decides the
/// Datalog-in-CQ containment Q'' ⊑ Q via the approximation automaton
/// (Prop. 3) intersected with the complement of the CQ-match evaluator.
/// Returns a witness expansion of Q'' violating Q when not determined.
struct Thm5Result {
  bool determined = false;
  /// Number of (NTA state, DP state) pairs explored (2ExpTime witness).
  size_t pairs_explored = 0;
  /// Transition applications performed by the containment fixpoint.
  size_t transition_visits = 0;
  /// Distinct DP macrostates materialized by the verdict pass; comparable
  /// across antichain on/off (the full fixpoint computes every reachable
  /// one, the pruned walk only those it reaches from kept pairs).
  size_t macrostates_visited = 0;
  /// Pairs discarded by the antichain prune (0 with antichain off). Like
  /// the counters above this is work accounting, not part of the
  /// bit-identical contract.
  size_t subsumption_prunes = 0;
  std::optional<TreeCode> counterexample;
};
Thm5Result CheckCqOverDatalogViews(const CQ& query, const ViewSet& views,
                                   const ContainmentOptions& options = {});

/// Decides Datalog ⊑ UCQ containment (Chaudhuri–Vardi style) exactly:
/// true iff every CQ approximation of `query` satisfies `ucq`. Both
/// Boolean. Exposed because Thm 5 reduces to it; also used by Prop. 9's
/// reductions. Returns a violating code when not contained.
struct ContainmentResult {
  bool contained = false;
  size_t pairs_explored = 0;
  /// Transition applications performed while reaching the fixpoint: one
  /// per (transition, pair) for unary and one per (transition, pair,
  /// partner pair) for binary transitions. The worklist fixpoint visits
  /// each combination O(1) times; the naive re-scan visited them once per
  /// round.
  size_t transition_visits = 0;
  /// Distinct DP macrostates materialized by the verdict pass (see
  /// Thm5Result::macrostates_visited).
  size_t macrostates_visited = 0;
  /// Pairs discarded by the antichain prune (0 with antichain off).
  size_t subsumption_prunes = 0;
  std::optional<TreeCode> counterexample;
};
ContainmentResult DatalogContainedInUcq(const DatalogQuery& query,
                                        const UCQ& ucq,
                                        const ContainmentOptions& options = {});

}  // namespace mondet

#endif  // MONDET_CORE_MONDET_CHECK_H_
