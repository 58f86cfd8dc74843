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

/// Abstract-interpretation dataflow analyses over datalog::Program.
///
/// The core is a generic bottom-up fixpoint engine (RunBottomUpFixpoint):
/// a worklist over the strata of the IDB dependency graph — the same SCC
/// stratification CompiledProgram evaluates with — iterating a pluggable
/// transfer function per rule until the per-predicate abstract values
/// stabilize. Three analyses are instantiated on top (docs/ANALYSIS.md,
/// "Dataflow analyses"):
///
///   1. Emptiness + constant-set analysis (AnalyzeEmptiness): a
///      {bottom, small constant set, top} domain per (predicate, position)
///      computing which predicates are provably empty — and which argument
///      positions are restricted to a small value set — given the EDB
///      vocabulary (optionally seeded from a concrete instance). Sound
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

/// The rules of one program grouped into strata: SCCs of the IDB
/// dependency graph in dependency-first topological order (the order
/// CompiledProgram evaluates them in). Rules whose head predicates share
/// an SCC share a stratum; rule indices inside a stratum keep program
/// order so fixpoint iteration is deterministic.
struct RuleStrata {
  std::vector<std::vector<size_t>> strata;  // rule indices per stratum
};
RuleStrata ComputeRuleStrata(const Program& program);

/// Generic bottom-up fixpoint: runs `domain` over the strata of `program`
/// until every per-predicate abstract value is stable, and returns the
/// final environment. The Domain concept:
///
///   struct Domain {
///     using Value = ...;            // per-predicate abstract value
///     // Starting value of predicate `p` (bottom for IDBs; the EDB seed
///     // for extensional predicates).
///     Value Init(PredId p) const;
///     // Abstract evaluation of one rule under environment `env` (total
///     // over the program's predicates). Returns false when the rule
///     // provably contributes nothing; otherwise fills `*head`.
///     bool Transfer(const Program&, const Rule&, size_t rule_index,
///                   const std::unordered_map<PredId, Value>& env,
///                   Value* head) const;
///     // Least-upper-bound accumulation; returns true iff *into changed.
///     // Must have finite ascending chains for termination.
///     bool Join(Value* into, const Value& v) const;
///   };
template <typename Domain>
std::unordered_map<PredId, typename Domain::Value> RunBottomUpFixpoint(
    const Program& program, const Domain& domain) {
  std::unordered_map<PredId, typename Domain::Value> env;
  const Vocabulary& vocab = *program.vocab();
  for (PredId p = 0; p < static_cast<PredId>(vocab.size()); ++p) {
    env.emplace(p, domain.Init(p));
  }
  RuleStrata rs = ComputeRuleStrata(program);
  for (const std::vector<size_t>& stratum : rs.strata) {
    // Worklist over the stratum's rules: re-fire until a full sweep adds
    // nothing. Termination: Join only moves up a finite-height lattice.
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t ri : stratum) {
        const Rule& rule = program.rules()[ri];
        typename Domain::Value head;
        if (!domain.Transfer(program, rule, ri, env, &head)) continue;
        if (domain.Join(&env.at(rule.head.pred), head)) changed = true;
      }
    }
  }
  return env;
}

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

/// The emptiness domain for RunBottomUpFixpoint. Exposed (rather than
/// hidden in the .cc) so tests can run the generic engine directly.
struct EmptinessDomain {
  using Value = PredAbstract;

  const Program* program = nullptr;
  /// Optional concrete seed: every predicate (IDB facts may occur in
  /// FPEval inputs) starts from the instance's actual per-position value
  /// sets (top above kMaxTrackedConsts), and predicates without facts
  /// start empty (EDB) or bottom (IDB). The analysis is then sound for
  /// exactly this instance; without a seed it is sound for every
  /// instance whose intensional relations start empty.
  const Instance* edb = nullptr;

  Value Init(PredId p) const;
  bool Transfer(const Program& program_in, const Rule& rule,
                size_t rule_index,
                const std::unordered_map<PredId, Value>& env,
                Value* head) const;
  bool Join(Value* into, const Value& v) const;
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
