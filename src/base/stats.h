#ifndef MONDET_BASE_STATS_H_
#define MONDET_BASE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/instance.h"

namespace mondet {

/// Exact per-predicate statistics of one relation.
struct PredicateStats {
  size_t cardinality = 0;        // number of facts
  std::vector<size_t> distinct;  // distinct values at each position
  // Exact per-position value multiplicities, the state that makes
  // Stats::Apply O(delta) for Maintain's deletion-aware folds.
  //
  // Materialized lazily: CountPred leaves the maps empty and keeps the
  // sorted column snapshot instead; the first Apply touching the
  // predicate rebuilds the maps from the snapshot (EnsureMaps), after
  // which distinct[pos] == value_counts[pos].size() holds and is
  // maintained incrementally. Only Maintain ever applies a delta, and
  // only to the predicates a batch touches, so a fixpoint run's Collect
  // and Refresh calls — and every untouched relation of a maintained
  // materialization — never pay the per-value map nodes, which would
  // otherwise be most of the counting cost.
  std::vector<std::unordered_map<ElemId, uint32_t>> value_counts;
  // Per-position sorted column snapshot backing the lazy maps; cleared
  // once EnsureMaps runs. maps_built is true for default-constructed
  // stats (empty maps match an empty relation).
  std::vector<std::vector<ElemId>> sorted_vals;
  bool maps_built = true;
};

/// Per-predicate cardinalities and per-(pred, pos) distinct-value counts
/// collected from a bound instance, feeding the selectivity cost model of
/// the join planner (SelectivityAtomOrder / CompiledProgram).
///
/// Statistics are a snapshot: evaluating a program on an instance that has
/// since grown (or on a different instance entirely) is still *correct* —
/// stale stats can only produce slower join orders, never wrong results.
/// During a fixpoint run the evaluator keeps the snapshot exact at every
/// planning point by recounting the predicates that changed (Refresh);
/// Maintain folds each batch's net membership changes in at O(delta) cost
/// (Apply). See docs/EVALUATION.md.
class Stats {
 public:
  Stats() = default;

  /// Exact counts for every predicate of `inst`'s vocabulary.
  static Stats Collect(const Instance& inst);

  /// Recounts just the given predicates from `inst`, leaving the rest of
  /// the snapshot untouched.
  void Refresh(const Instance& inst, const std::vector<PredId>& preds);

  /// Folds `added` in and `removed` out, in O((|added| + |removed|) ·
  /// arity): Maintain's per-batch statistics update. The contract: this
  /// snapshot covered exactly (facts of `inst`) ∖ added ∪ removed, with
  /// `added` and `removed` disjoint sets of genuinely applied mutations
  /// (Instance::AddFact / RemoveFact both report whether they changed the
  /// instance). Feeding a delta from a different instance, one containing
  /// already-counted facts, or removing a fact this snapshot never counted
  /// — including a double-delete — breaks the equation or a per-value
  /// multiplicity and aborts. Pass an empty `removed` for an insert-only
  /// delta.
  void Apply(const Instance& inst, std::span<const Fact> added,
             std::span<const Fact> removed);

  /// Total facts this snapshot has counted (sum of cardinalities). Equals
  /// inst.num_facts() whenever the snapshot is current for `inst`; the
  /// Apply contract check is phrased in terms of this.
  size_t counted_facts() const { return counted_facts_; }

  size_t cardinality(PredId p) const {
    return p < by_pred_.size() ? by_pred_[p].cardinality : 0;
  }
  size_t distinct(PredId p, size_t pos) const {
    if (p >= by_pred_.size()) return 0;
    const auto& d = by_pred_[p].distinct;
    return pos < d.size() ? d[pos] : 0;
  }

  /// System-R style estimate of how many facts of `p` match a probe with
  /// the positions flagged in `bound_pos` already bound:
  ///   |p| · prod_{i bound} 1 / max(1, distinct(p, i))
  /// assuming uniform values and independent positions. Returns 0 for an
  /// empty (or never-counted) relation; results are fractional on purpose
  /// — the planner compares them, it never rounds.
  double EstimateMatches(PredId p, const std::vector<bool>& bound_pos) const;

  /// Same estimate, phrased for the planner's inner loop: `args[pos]` is
  /// the variable at position pos and `bound_var` flags bound variables,
  /// so no per-call position mask needs to be materialized.
  double EstimateMatches(PredId p, const std::vector<ElemId>& args,
                         const std::vector<bool>& bound_var) const;

 private:
  void CountPred(const Instance& inst, PredId p);
  /// Materializes `ps.value_counts` from the sorted snapshot CountPred
  /// left behind (see PredicateStats::sorted_vals). Idempotent.
  static void EnsureMaps(PredicateStats& ps);

  std::vector<PredicateStats> by_pred_;
  size_t counted_facts_ = 0;
};

}  // namespace mondet

#endif  // MONDET_BASE_STATS_H_
