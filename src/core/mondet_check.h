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
  /// exhaustive (recursive query/views, depths below the ones that cover
  /// every expansion, or caps hit): no counterexample up to the bounds.
  kUnknownBounded,
  /// The inputs fail a precondition (goal predicate defined by no rule,
  /// vocabulary mismatch, required fragment violated): see
  /// MonDetResult::diagnostics for the witnesses. No tests were run.
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
  /// Ignored: the checker runs on the calling thread. Kept only because
  /// perfbench/cpp/check_workload.cc sets it; it goes with the next
  /// benchmark change (ROADMAP.md).
  int num_threads = 0;
};

struct MonDetResult {
  Verdict verdict = Verdict::kUnknownBounded;
  std::optional<FailingTest> failure;
  /// Canonical tests up to and including the failing one, or all of
  /// them; tests the walk prunes count as run.
  size_t tests_run = 0;
  size_t expansions_tried = 0;
  /// Evaluations of Q the walk made: D' prefixes at branching trie nodes
  /// plus leaves. Like the Thm 5 counters this is work accounting, not
  /// part of the bit-identical contract.
  size_t evaluations = 0;
  /// Precondition violations when verdict == kInvalidInput.
  std::vector<Diagnostic> diagnostics;
};

/// The canonical-test procedure of Lemma 5: enumerates tests (Qi, D') and
/// checks D' |= Q(c) for Qi's frontier tuple c, so Q may have answer
/// variables (Boolean queries have the empty tuple). Sound refuter for all
/// of Datalog; exact decision when query and views are non-recursive and
/// the bounds cover every expansion (in particular: the NP-complete CQ/CQ
/// case of [21] and the Πp2 UCQ/UCQ case). Determinacy is undecidable in
/// general, so the verdict is kDetermined only when the search was
/// exhaustive, i.e. when all of these hold:
///   - the query is non-recursive and query_depth >= |IDBs of Q| + 1;
///   - the enumeration of Q's approximations hit no cap;
///   - every view definition is non-recursive, its expansions hit no cap
///     and view_depth >= |IDBs of its definition| (a non-recursive
///     derivation path visits distinct IDBs);
///   - every approximation's block held all its tests: no fact without an
///     expansion within view_depth, no product above
///     max_tests_per_expansion.
///
/// Each approximation's tests are walked as a trie pruned by monotonicity
/// (TestBlockWalk, core/test_walk.h, which the chase separator shares).
/// The result — verdict, counterexample, tests_run, expansions_tried — is
/// that of evaluating every test in order up to the first failure.
MonDetResult CheckMonotonicDeterminacy(const DatalogQuery& query,
                                       const ViewSet& views,
                                       const MonDetOptions& options = {});

/// Q'' = Π_V ∪ {Thm5.Goal ← V(Q)} for a Boolean CQ `query`: the view
/// definitions plus one goal rule whose body is the view image of Q's
/// canonical database, its elements read back as variables. Adds the
/// nullary predicate `Thm5.Goal` to the vocabulary.
DatalogQuery Thm5Query(const CQ& query, const ViewSet& views);

/// Exact decision for a Boolean CQ query over arbitrary Datalog views
/// (Thm 5, 2ExpTime): builds Q'' (Thm5Query) and decides the
/// Datalog-in-CQ containment Q'' ⊑ Q via the approximation automaton
/// (Prop. 3) intersected with the complement of the CQ-match evaluator.
/// Returns a witness expansion of Q'' violating Q when not determined.
struct Thm5Result {
  bool determined = false;
  /// Number of (NTA state, DP state) pairs explored (2ExpTime witness).
  size_t pairs_explored = 0;
  /// Transition applications performed by the containment walk.
  size_t transition_visits = 0;
  /// Distinct DP macrostates the walk computed: every candidate's state,
  /// pruned candidates included.
  size_t macrostates_visited = 0;
  /// Pairs discarded by the antichain prune. Like the counters above this
  /// is work accounting, not part of the verdict and witness contract.
  size_t subsumption_prunes = 0;
  std::optional<TreeCode> counterexample;
};
Thm5Result CheckCqOverDatalogViews(const CQ& query, const ViewSet& views);

/// Decides Datalog ⊑ UCQ containment (Chaudhuri–Vardi style) exactly:
/// true iff every CQ approximation of `query` satisfies `ucq`. Both
/// Boolean. Exposed because Thm 5 reduces to it; also used by Prop. 9's
/// reductions. Returns a violating code when not contained.
///
/// The walk interns (NTA state, DP state) pairs bottom-up and discards a
/// pair whose match sets contain an already-visited pair's for the same
/// NTA state: DP transitions are monotone in match-set inclusion and
/// rejection is downward closed, so a counterexample reachable through
/// the pruned pair is also reachable through the kept one. DP states are
/// bitsets over an interned match universe, so each inclusion test is a
/// word-wise AND-NOT (docs/EVALUATION.md, "The Thm 5 path"). On failure
/// the counterexample is the derivation of the walk's first bad pair: a
/// pair is interned only through pairs interned before it, so that code
/// satisfies the query and no disjunct of `ucq`.
struct ContainmentResult {
  bool contained = false;
  size_t pairs_explored = 0;
  /// Transition applications performed by the walk: one per (transition,
  /// pair) for unary and one per (transition, pair, partner pair) for
  /// binary transitions. The worklist visits each combination O(1)
  /// times; the naive re-scan visited them once per round.
  size_t transition_visits = 0;
  /// Distinct DP macrostates the walk computed (see
  /// Thm5Result::macrostates_visited).
  size_t macrostates_visited = 0;
  /// Pairs discarded by the antichain prune.
  size_t subsumption_prunes = 0;
  std::optional<TreeCode> counterexample;
};
ContainmentResult DatalogContainedInUcq(const DatalogQuery& query,
                                        const UCQ& ucq);

}  // namespace mondet

#endif  // MONDET_CORE_MONDET_CHECK_H_
