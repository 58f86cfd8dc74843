#ifndef MONDET_BASE_HOMOMORPHISM_H_
#define MONDET_BASE_HOMOMORPHISM_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "base/instance.h"

namespace mondet {

/// Greedy join ordering shared by HomSearch and the Datalog rule planner
/// (datalog/eval_plan): repeatedly picks the unprocessed atom binding the
/// most already-bound variables, breaking ties toward the smaller relation
/// estimate. `atom_vars[i]` lists the variables of atom i, `rel_size(i)`
/// estimates how many target facts atom i ranges over, and `bound`
/// (resized to `num_vars`) marks variables bound before the join starts.
std::vector<uint32_t> GreedyAtomOrder(
    const std::vector<std::vector<ElemId>>& atom_vars, size_t num_vars,
    const std::function<size_t(size_t)>& rel_size,
    std::vector<bool> bound = {});

/// Selectivity-scored join ordering, the statistics-driven sibling of
/// GreedyAtomOrder (used by CompiledProgram when instance statistics are
/// available). `est_matches` is typically Stats::EstimateMatches. At each
/// step it picks, lexicographically:
///   1. an atom sharing at least one already-bound variable (so rules with
///      a connected join graph never plan a cross product; nullary atoms
///      count as sharing — they are pure filters),
///   2. the smallest estimated match count `est_matches(i, bound)`, where
///      `bound` flags the variables bound before this step,
///   3. the lowest atom index (deterministic ties).
/// If `est_rows` is non-null it receives, per step, the estimated number
/// of intermediate rows after joining that atom (the running product of
/// match estimates), aligned with the returned order.
std::vector<uint32_t> SelectivityAtomOrder(
    const std::vector<std::vector<ElemId>>& atom_vars, size_t num_vars,
    const std::function<double(size_t, const std::vector<bool>&)>& est_matches,
    std::vector<bool> bound = {}, std::vector<double>* est_rows = nullptr);

/// Backtracking homomorphism search between instances.
///
/// A homomorphism h from pattern P to target T maps every element of P to an
/// element of T such that R(c1..cn) in P implies R(h(c1)..h(cn)) in T
/// (Sec. 2). This is the workhorse behind CQ evaluation, containment,
/// canonical tests and the pebble-game preconditions.
///
/// Pattern elements that occur in no fact are mapped canonically to target
/// element 0 (any image is valid for them); if the pattern has such elements
/// and the target is empty, no homomorphism exists.
class HomSearch {
 public:
  /// Both instances must share the same Vocabulary object.
  HomSearch(const Instance& pattern, const Instance& target);

  using Fixed = std::vector<std::pair<ElemId, ElemId>>;
  using Callback = std::function<bool(const std::vector<ElemId>&)>;

  /// True if a homomorphism extending `fixed` exists.
  bool Exists(const Fixed& fixed = {}) const;

  /// Returns one homomorphism extending `fixed` (a full element map of the
  /// pattern), or nullopt.
  std::optional<std::vector<ElemId>> FindOne(const Fixed& fixed = {}) const;

  /// Enumerates every homomorphism extending `fixed` exactly once.
  /// The callback returns false to stop early.
  void ForEach(const Fixed& fixed, const Callback& cb) const;

  /// Number of homomorphisms extending `fixed` (each counted once).
  size_t Count(const Fixed& fixed = {}) const;

 private:
  const Instance& pattern_;
  const Instance& target_;
  // Pattern facts materialized once at construction (the pattern is small
  // and immutable for the search's lifetime; the columnar target is always
  // read in place through RowsWith/Args).
  std::vector<Fact> pattern_facts_;
  std::vector<uint32_t> atom_order_;  // pattern fact indices, search order

  bool Search(size_t depth, std::vector<ElemId>& map, const Callback& cb) const;
  bool Run(const Fixed& fixed, const Callback& cb) const;
};

/// Convenience: does `pattern` map homomorphically into `target`?
bool HasHomomorphism(const Instance& pattern, const Instance& target);

/// Verifies that `map` (indexed by pattern element) is a homomorphism.
bool IsHomomorphism(const Instance& pattern, const Instance& target,
                    const std::vector<ElemId>& map);

/// True if the instances are homomorphically equivalent (maps both ways).
bool HomEquivalent(const Instance& a, const Instance& b);

}  // namespace mondet

#endif  // MONDET_BASE_HOMOMORPHISM_H_
