#ifndef MONDET_ANALYSIS_DATAFLOW_H_
#define MONDET_ANALYSIS_DATAFLOW_H_

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/instance.h"
#include "datalog/program.h"

namespace mondet {

/// Abstract-interpretation dataflow analyses over datalog::Program
/// (docs/ANALYSIS.md, "Dataflow analyses"):
///
///   1. Emptiness + constant-set analysis (AnalyzeEmptiness): a
///      {bottom, small constant set, top} domain per (predicate, position)
///      computing which predicates are provably empty — and which argument
///      positions are restricted to a small value set — given the EDB
///      vocabulary (optionally seeded from a concrete instance). A
///      bottom-up fixpoint over the strata of Stratify (datalog/strata.h),
///      the ones CompiledProgram evaluates: each stratum's rules re-fire
///      until the per-predicate abstract values stabilize. Sound
///      overapproximation: the concrete fixpoint of any instance
///      compatible with the seed is contained in the concretization
///      (tests/dataflow_soundness_test.cc pins this), so a rule flagged
///      dead can never fire (the dead-rule lint reports it).
///   2. Binding-pattern / adornment analysis (AnalyzeAdornments):
///      propagates bound/free argument positions from the goal through
///      rule bodies left-to-right (the magic-sets sideways
///      information-passing convention), collecting every reachable call
///      pattern per IDB predicate.
///   3. Rule subsumption / redundancy (AnalyzeSubsumption): a rule is
///      subsumed when another rule for the same head derives a superset
///      of its facts on every database state (a homomorphism between the
///      rule bodies fixing the head, via base/homomorphism); a body atom
///      is redundant when the body folds onto the body without it.

// --- Emptiness + constant-set analysis. ------------------------------------

/// Cap on tracked per-position constant sets; beyond it a position
/// saturates to top. Keeps the lattice height (and the fixpoint cost)
/// bounded by O(preds * arity * kMaxTrackedConsts).
inline constexpr size_t kMaxTrackedConsts = 4;

/// Abstract value of one argument position: top (any element), or a set
/// of at most kMaxTrackedConsts possible elements. The empty set is the
/// position-level bottom: no value can occur there.
struct PosAbstract {
  bool top = false;
  std::vector<ElemId> consts;  // sorted, distinct; meaningful iff !top

  bool Admits(ElemId e) const {
    return top || std::binary_search(consts.begin(), consts.end(), e);
  }
};

/// Abstract value of one predicate: provably empty (`nonempty == false`,
/// the relation-level bottom), or possibly nonempty with one PosAbstract
/// per argument position.
struct PredAbstract {
  bool nonempty = false;
  std::vector<PosAbstract> pos;  // arity entries; meaningful iff nonempty
};

/// Why one rule can never fire (AnalyzeEmptiness flags it dead).
struct DeadRuleReason {
  int atom = -1;        // body atom index the proof points at
  std::string detail;   // human-readable explanation
};

struct EmptinessResult {
  /// Final abstract value per predicate of the vocabulary.
  std::unordered_map<PredId, PredAbstract> preds;
  /// Per rule index: true when the body is abstractly unsatisfiable, so
  /// the rule can never fire on any instance compatible with the seed.
  std::vector<bool> rule_dead;
  /// Reasons, parallel to rule_dead (empty detail when the rule is live).
  std::vector<DeadRuleReason> dead_reasons;
  /// IDB predicates provably empty (sorted): every rule deriving them is
  /// dead, so they never hold a fact.
  std::vector<PredId> empty_idbs;

  bool IsEmpty(PredId p) const {
    auto it = preds.find(p);
    return it != preds.end() && !it->second.nonempty;
  }
};

/// Runs the emptiness + constant-set fixpoint. With `edb == nullptr` the
/// result is sound for every instance over the vocabulary whose IDB
/// relations start empty (EDB predicates assumed arbitrary); with a seed
/// it is sound for that exact instance, IDB input facts included.
EmptinessResult AnalyzeEmptiness(const Program& program,
                                 const Instance* edb = nullptr);

// --- Binding-pattern / adornment analysis. ---------------------------------

/// One reachable call pattern of an IDB predicate, rendered magic-sets
/// style: one char per argument position, 'b' (bound) or 'f' (free).
/// The goal is called all-bound (its arguments are the query constants);
/// bindings propagate through rule bodies left-to-right.
struct AdornmentResult {
  /// Reachable call adornments per IDB predicate (only predicates
  /// actually called somewhere reachable from the goal appear).
  std::map<PredId, std::set<std::string>> calls;
  /// Adornments seen at each reachable IDB body-atom call site
  /// (rule index, body atom index).
  std::map<std::pair<size_t, int>, std::set<std::string>> atom_calls;
  /// False when the goal is nullary: no binding exists anywhere, so an
  /// all-free call pattern is vacuous rather than a finding.
  bool goal_binds = false;
};

AdornmentResult AnalyzeAdornments(const Program& program, PredId goal);

// --- Rule subsumption / redundancy. ----------------------------------------

struct SubsumptionResult {
  /// Per rule index: the lowest-index distinct rule that derives a
  /// superset of its facts on every database state, or -1. Of two
  /// equivalent rules only the later one is marked, so dropping every
  /// marked rule is always sound.
  std::vector<int> subsumed_by;
  /// Per rule index: body atom indices implied by the rest of the body
  /// (removing any single one leaves a uniformly equivalent rule).
  std::vector<std::vector<int>> redundant_atoms;
};

SubsumptionResult AnalyzeSubsumption(const Program& program);

// --- Combined result + rendering. ------------------------------------------

struct DataflowResult {
  EmptinessResult emptiness;
  SubsumptionResult subsumption;
  /// Present when a goal was supplied.
  std::optional<AdornmentResult> adornments;
};

/// Runs all three analyses (adornments only when `goal` is set; emptiness
/// seeded from `edb` when non-null).
DataflowResult AnalyzeDataflow(const Program& program,
                               std::optional<PredId> goal = std::nullopt,
                               const Instance* edb = nullptr);

/// Human-readable dump of the abstract fixpoint, one line per predicate
/// (mondet-lint --dataflow). Position values render as `T` (top), `{..}`
/// (constant sets, element names from `edb` when given) or `{}` (bottom);
/// empty predicates render as `empty`. Stable order, suitable for goldens.
std::string DescribeDataflow(const Program& program,
                             const DataflowResult& result,
                             const Instance* edb = nullptr);

}  // namespace mondet

#endif  // MONDET_ANALYSIS_DATAFLOW_H_
