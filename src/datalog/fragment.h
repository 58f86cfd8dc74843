#ifndef MONDET_DATALOG_FRAGMENT_H_
#define MONDET_DATALOG_FRAGMENT_H_

#include <optional>
#include <vector>

#include "analysis/diagnostic.h"
#include "cq/ucq.h"
#include "datalog/program.h"

namespace mondet {

// The boolean fragment gates answer what the static analyzer
// (analysis/analyzer.h) reports: a negative answer always has concrete
// witnesses — the offending rule and atoms — available via
// FragmentViolations.

/// True if all intensional predicates have arity <= 1 (Monadic Datalog;
/// arity-0 goal predicates of Boolean queries are permitted).
bool IsMonadic(const Program& program);

/// True if in each rule all head variables co-occur in a single extensional
/// body atom. Following the paper's convention, every monadic program
/// counts as frontier-guarded.
bool IsFrontierGuarded(const Program& program);

/// True if the program has no recursion through IDB predicates (i.e. the
/// IDB dependency graph is acyclic: no stratum of Stratify is recursive),
/// so the query is equivalent to a UCQ.
bool IsNonRecursive(const Program& program);

/// Unfolds a non-recursive Datalog query into an equivalent UCQ.
/// Returns nullopt — with diagnostics appended to `diags` when provided —
/// when the program is recursive or the unfolding exceeds `max_disjuncts`
/// (check ids "fragment-non-recursive" and "unfold-overflow").
std::optional<UCQ> TryUnfoldToUcq(const DatalogQuery& query,
                                  size_t max_disjuncts = 100000,
                                  std::vector<Diagnostic>* diags = nullptr);

/// As TryUnfoldToUcq, but the program must satisfy IsNonRecursive and fit
/// in `max_disjuncts` (MONDET_CHECK fails otherwise). Prefer the Try
/// variant on user-reachable paths.
UCQ UnfoldToUcq(const DatalogQuery& query, size_t max_disjuncts = 100000);

/// Bounded Datalog-containment check Q1 ⊑ Q2 (same arity): evaluates Q2
/// on the CQ approximations of Q1 up to the given depth. A refutation
/// (witness expansion on which Q2 misses Q1's frontier tuple) is always
/// real; `exhaustive` is true when every expansion was covered (Q1
/// non-recursive and within bounds), in which case non-refutation proves
/// containment. Datalog containment is undecidable in general [25] — this
/// is the standard semi-decision procedure. (For UCQ right-hand sides the
/// exact automata procedure is DatalogContainedInUcq in core/, an
/// antichain-pruned lazy product walk.)
struct BoundedContainment {
  bool refuted = false;
  bool exhaustive = false;
  size_t expansions_checked = 0;
  std::optional<Instance> witness;
};
BoundedContainment CheckDatalogContainmentBounded(const DatalogQuery& q1,
                                                  const DatalogQuery& q2,
                                                  int depth,
                                                  size_t max_expansions = 500);

}  // namespace mondet

#endif  // MONDET_DATALOG_FRAGMENT_H_
