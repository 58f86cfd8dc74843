#ifndef MONDET_DATALOG_EVAL_PLAN_H_
#define MONDET_DATALOG_EVAL_PLAN_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/instance.h"
#include "base/stats.h"
#include "datalog/kernel.h"
#include "datalog/program.h"

namespace mondet {

/// Evaluation knobs for CompiledProgram::Eval / FpEval.
struct EvalOptions {
  /// Ignored: Eval runs on the calling thread. Kept only because
  /// perfbench/cpp/check_workload.cc sets it; it goes with the next
  /// benchmark change (ROADMAP.md).
  int num_threads = 0;
  /// Statistics-driven join planning (the default): score join orders by
  /// estimated selectivity from per-predicate statistics — `stats` when
  /// set, otherwise exact statistics of the evolving result (collected at
  /// the start of the run, the changed predicates recounted per stratum
  /// and per re-plan), re-planned as the relations grow
  /// (docs/EVALUATION.md documents the cost model). When false, Eval runs
  /// the compile-time orders: EDB-first greedy, or the orders fixed by
  /// BindStats.
  bool stats_planner = true;
  /// Plan from this (possibly stale) snapshot instead of collecting live
  /// statistics; suppresses in-run re-planning. Stale stats can only
  /// produce slower orders, never wrong results. Ignored when
  /// stats_planner is false. Not owned; must outlive the Eval call.
  const Stats* stats = nullptr;
  /// The planner's own cost gate: below this many input facts, planning
  /// cannot pay for itself, so Eval runs the compile-time orders. The
  /// per-run cost — one Collect with a sort per column plus a
  /// SelectivityAtomOrder pass per rule — takes tens of µs, which
  /// dominates a µs-scale eval outright (the checker's canonical-test
  /// loops issue thousands of those), so the gate sits at 64 facts. Set to
  /// 0 to force live planning on any input (the differential tests do); a
  /// caller-supplied `stats` snapshot bypasses the gate.
  size_t stats_min_facts = 64;
  /// Ignored: Eval has no dataflow pass. Kept only because
  /// perfbench/cpp/check_workload.cc sets it; it goes with the next
  /// benchmark change (ROADMAP.md).
  bool dataflow_prune = true;
  /// Compiled join kernels (datalog/kernel.h): lower each planned
  /// (rule, delta-seat, order) into a shape-specialized loop nest over the
  /// columnar store — fixed binding frame, plan-time probe/check/bind
  /// classification, flat derived-head buffers — instead of interpreting
  /// the atom order through the generic backtracking join. Bit-identical
  /// to the interpreter in result, insertion order and derivation counts
  /// (pinned by the kernel-differential oracle); kept as an escape hatch
  /// for the differential arms and as the interpreter's reference.
  bool compiled_kernels = true;
  /// Input-size gate for compiled_kernels, the stats_min_facts idiom
  /// again: lowering a (rule, seat, order) into a kernel costs a few µs
  /// per rule-seat per Eval, which a µs-scale evaluation of a tiny
  /// instance can never amortize — and the canonical-test inner loops
  /// (separators, containment search) run thousands of such evals.
  /// Below the gate the generic interpreter runs instead; above it the
  /// kernel pays for itself within the first delta round. A nonzero gate
  /// additionally requires at least 4 input facts per program rule
  /// (lowering cost is per rule-seat, so a huge program over few facts
  /// can never amortize it no matter the absolute input size). Set to 0
  /// to force kernels on any input (the kernel-differential oracle and
  /// bench_kernels do, so the gated path stays fully cross-checked).
  size_t kernel_min_facts = 64;
};

/// Counters for one stratum of a fixpoint run.
struct StratumStats {
  size_t iterations = 0;     // semi-naive rounds, incl. the initial one
  size_t facts_derived = 0;  // new facts this stratum added
  size_t join_probes = 0;    // candidate facts scanned by index joins
  size_t replans = 0;        // mid-stratum join-order recomputations
  // Facts the statistics machinery recounted this stratum (Stats::Refresh
  // of the previous stratum's predicates on entry and of this stratum's
  // on every re-plan).
  size_t stats_facts_counted = 0;
  double wall_seconds = 0;
};

/// Counters for a fixpoint run. Eval *accumulates* into a caller-provided
/// EvalStats, so one struct can aggregate several runs (as the bench
/// harnesses do); `strata` gets one entry appended per stratum evaluated.
/// Maintain fills the retraction counters (facts_retracted, overdeleted,
/// rederived), which stay zero on the insert-only Eval path.
struct EvalStats {
  size_t iterations = 0;
  size_t facts_derived = 0;
  size_t facts_retracted = 0;  // facts removed by Maintain
  size_t overdeleted = 0;      // DRed: provisional deletions
  size_t rederived = 0;        // DRed: provisional deletions revived
  size_t join_probes = 0;
  size_t replans = 0;
  // Always 0: Eval skips no rules. Kept only because
  // perfbench/cpp/fixpoint_workload.cc reads it; it goes with the next
  // benchmark change (ROADMAP.md).
  size_t rules_pruned = 0;
  // Sum over strata (see StratumStats); Maintain adds its batch's net
  // membership changes, the facts its Stats::Apply folds in.
  size_t stats_facts_counted = 0;
  double wall_seconds = 0;
  std::vector<StratumStats> strata;

  /// Adds the scalar totals and appends the strata of `other`.
  void Accumulate(const EvalStats& other);

  /// One-line rendering for bench labels / logs.
  std::string Summary() const;
};

/// Returns 1, the evaluator's thread count, whatever `requested` says.
/// Kept only because perfbench/cpp/main.cc prints it; it goes with the
/// next benchmark change (ROADMAP.md).
int ResolveEvalThreads(int requested);

/// One batch of base-instance mutations for CompiledProgram::Maintain.
/// The contract is normalized set semantics: `inserts` holds exactly the
/// facts newly added to the base and `deletes` exactly the facts removed
/// from it — disjoint, duplicate-free, and genuinely applied (callers
/// drop duplicate inserts and deletes of absent facts; inserts win when
/// one batch both inserts and deletes a fact). MaintainedImage::ApplyDelta
/// performs this normalization for raw user batches.
struct FactDelta {
  std::vector<Fact> inserts;
  std::vector<Fact> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
};

/// A maintained fixpoint: FPEval(Π, base) with per-fact derivation counts
/// (Instance::FactCount) plus exact planner statistics of that instance.
/// Produced by Materialize, updated in place by Maintain; the invariant —
/// `inst` bit-identical (as a fact set, with counts and statistics) to a
/// fresh Materialize of the current base — is the maintenance engine's
/// headline correctness contract (tests/maintenance_differential_test.cc).
/// `stats` is the only snapshot that ever takes a delta: Maintain folds
/// each batch in with Stats::Apply, which builds the per-value maps
/// (Stats::EnsureMaps) just for the predicates the batch touches.
struct Materialization {
  Instance inst;
  Stats stats;
};

/// Outcome of one Maintain call: the net membership changes of the
/// materialized instance (every fact that appeared / disappeared, in the
/// deterministic order they were recorded) plus the DRed counters.
/// Consumers project these deltas further — MaintainedImage filters them
/// to the view predicates to keep the view image current.
struct MaintainResult {
  std::vector<Fact> inserts;  // net facts added to the materialization
  std::vector<Fact> deletes;  // net facts removed from it
  size_t overdeleted = 0;     // DRed provisional deletions across strata
  size_t rederived = 0;       // provisional deletions that came back
};

/// A Datalog program compiled for repeated semi-naive evaluation.
///
/// Compilation groups the rules into strata — the SCCs of the IDB
/// dependency graph, in topological order — and precomputes per-rule join
/// orderings: one for the initial full join and one per recursive body
/// atom (the semi-naive "delta" seat). Without statistics the compile-time
/// orders come from the shared GreedyAtomOrder heuristic (EDB atoms
/// first); BindStats re-plans them under the selectivity cost model, and
/// Eval by default plans from live statistics anyway (EvalOptions).
/// Construct once and Eval many times; the per-rule plans and strata are
/// reused across calls — and the same object serves the analyzer's plan
/// lints (AnalysisOptions::compiled) and evaluation, so lint and run judge
/// identical plans.
class CompiledProgram {
 public:
  explicit CompiledProgram(const Program& program);

  /// Re-plans the stored compile-time join orders under the selectivity
  /// cost model of `stats` and remembers the snapshot: DescribePlans then
  /// reports estimated intermediate sizes (so plan lints judge the plans
  /// against real numbers), and Eval with stats_planner=false runs these
  /// stats-driven orders verbatim.
  void BindStats(Stats stats);

  /// The snapshot from BindStats, or nullptr.
  const Stats* bound_stats() const {
    return bound_stats_ ? &*bound_stats_ : nullptr;
  }

  /// FPEval(Π, I) (Sec. 2): all facts of `input` plus every derivable IDB
  /// fact, over the same elements. Single-threaded and deterministic for
  /// any statistics (plans affect order of exploration, not the result).
  /// When `stats` is non-null the run's counters are accumulated into it.
  Instance Eval(const Instance& input, EvalStats* stats = nullptr,
                const EvalOptions& options = {}) const;

  /// Eval plus derivation counting: the fixpoint of `input` whose facts
  /// carry exact derivation counts (number of rule derivations, plus one
  /// for base membership) for every non-recursive stratum, and exact
  /// statistics. Facts of recursive SCC strata keep count 1 — counting is
  /// unsound under recursion (a fact may support itself), which is
  /// exactly why Maintain switches to DRed there.
  Materialization Materialize(const Instance& input,
                              EvalStats* stats = nullptr,
                              const EvalOptions& options = {}) const;

  /// Incremental view maintenance: updates `m` in place so it equals
  /// Materialize(base) for the *new* base, given that it equaled
  /// Materialize of the old base. `base` is the already-mutated new base
  /// instance; `delta` lists its exact membership changes (see FactDelta).
  /// Non-recursive strata are maintained by counting (the ordered-delta
  /// join formula adjusts derivation counts; membership follows count
  /// zero-crossings), recursive SCC strata by delete-rederive (DRed):
  /// overdelete over the old state, remove, rederive survivors, then
  /// semi-naive insertion. Single-threaded and deterministic: the same
  /// schedule always yields the same instance, counts, and statistics.
  /// When `stats` is non-null the call's counters accumulate into it.
  MaintainResult Maintain(Materialization& m, const Instance& base,
                          const FactDelta& delta,
                          EvalStats* stats = nullptr) const;

  size_t num_strata() const { return strata_.size(); }
  const Program& program() const { return program_; }

  /// Description of one precomputed join order, for plan-level lints
  /// (analysis/) and debugging: the body-atom visit order of rule
  /// `rule` when seeded from `delta_atom` (-1 = the initial full join,
  /// otherwise a body-atom index whose variables start bound).
  struct JoinOrderDesc {
    size_t rule = 0;
    int delta_atom = -1;
    std::vector<uint32_t> order;  // body atom indices, join order
    // Estimated intermediate rows after each step; empty unless stats
    // are bound (BindStats).
    std::vector<double> est_rows;
  };

  /// All join orders of the compiled plans, one entry per (rule, seat).
  std::vector<JoinOrderDesc> DescribePlans() const;

  /// Human-readable rendering of DescribePlans, one line per (rule,
  /// seat), stable enough to pin in golden tests:
  ///   rule 0 (Head) full: R S(~4) T(~2.5)
  ///   rule 0 (Head) delta[1:S]: T R
  /// The (~n) estimates appear only when stats are bound.
  std::string DescribePlansText() const;

 private:
  /// The fixed inputs of planning one (rule, delta-seat) pair, precomputed
  /// at compile time so per-stratum re-planning allocates next to nothing:
  /// the body atoms to order (the delta atom excluded), their variables,
  /// and the variables the delta fact pre-binds.
  struct SeatShape {
    std::vector<std::vector<ElemId>> sub;  // args of each atom to order
    std::vector<uint32_t> back;            // sub index -> body atom index
    std::vector<bool> bound0;              // vars pre-bound by the seat
  };
  struct RulePlan {
    QAtom head;
    std::vector<QAtom> body;
    size_t num_vars = 0;
    std::vector<int> recursive_atoms;  // body indices over same-SCC preds
    // seats[0]: the initial full join; seats[1 + i]: recursive_atoms[i]
    // as the delta seat. orders/est_rows align with seats; est_rows
    // entries are empty unless stats are bound.
    std::vector<SeatShape> seats;
    std::vector<std::vector<uint32_t>> orders;
    std::vector<std::vector<double>> est_rows;
  };
  struct Stratum {
    std::vector<uint32_t> plans;       // indices into plans_, program order
    std::unordered_set<PredId> preds;  // the SCC's predicates
    bool recursive = false;  // some rule has a same-SCC body atom
  };
  /// The recorded membership changes of one predicate during Maintain:
  /// `ins`/`del` in deterministic discovery order, `ins_set` for the
  /// old-state reconstruction (old = current − ins + del). Transparent
  /// hashing so stored rows probe the set as FactViews, copy-free.
  struct PredChange {
    std::vector<Fact> ins;
    std::vector<Fact> del;
    std::unordered_set<Fact, FactHash, FactEq> ins_set;
  };
  using ChangeMap = std::unordered_map<PredId, PredChange>;
  /// One unit of a semi-naive round: fire plan `plan` either as a
  /// full join (rec < 0) or seeding recursive atom `rec` from each row of
  /// `*delta_rows` (rows of `delta_pred`), visiting the remaining atoms
  /// in `*order` — through `*kernel` when compiled, the interpreter
  /// otherwise.
  struct WorkItem {
    uint32_t plan = 0;
    int rec = -1;
    PredId delta_pred = kNoPred;
    const std::vector<uint32_t>* delta_rows = nullptr;
    const std::vector<uint32_t>* order = nullptr;
    const JoinKernel* kernel = nullptr;  // null = generic interpreter
  };

  /// Computes the join order for seat `seat` of `plan` (0 = full join,
  /// 1 + i = recursive atom i): selectivity-scored when `stats` is set,
  /// EDB-first greedy otherwise. `est_rows`, if non-null, receives the
  /// per-step estimates (cleared when no stats).
  std::vector<uint32_t> PlanOrder(const RulePlan& plan, size_t seat,
                                  const Stats* stats,
                                  std::vector<double>* est_rows) const;

  void RunItem(const WorkItem& item, const Instance& target, size_t* probes,
               DerivedBuffer* out) const;
  void Join(const RulePlan& plan, const std::vector<uint32_t>& order,
            size_t depth, std::vector<ElemId>& map, const Instance& target,
            size_t* probes, DerivedBuffer* out) const;

  /// The maintenance engine's join: matches body atoms k.. of `plan` in
  /// body order (skipping `seat`, whose variables `map` pre-binds) and
  /// calls `out` once per complete match; `out` returns false to stop the
  /// enumeration early (rederivation checks need only a witness). Atoms
  /// flagged in `read_old` read the *old* state, reconstructed from the
  /// current instance and the recorded changes (current − ins + del);
  /// the rest read the current instance directly. Returns false iff some
  /// `out` call stopped the enumeration.
  bool MatchAtoms(const RulePlan& plan, int seat, size_t k,
                  const std::vector<uint8_t>& read_old, const Instance& inst,
                  const ChangeMap& changed, std::vector<ElemId>& map,
                  const std::function<bool(const std::vector<ElemId>&)>& out)
      const;

  /// Counting maintenance of the non-recursive stratum `si` (see
  /// Maintain); DRed maintenance of the recursive stratum `si`.
  void MaintainCounting(size_t si, const std::vector<const Fact*>& base_ins,
                        const std::vector<const Fact*>& base_del,
                        Instance& inst, ChangeMap& changed,
                        const std::function<void(const Fact&)>& record_ins,
                        const std::function<void(const Fact&)>& record_del)
      const;
  void MaintainDRed(size_t si, const Instance& base,
                    const std::vector<const Fact*>& base_ins,
                    const std::vector<const Fact*>& base_del, Instance& inst,
                    ChangeMap& changed, MaintainResult* res,
                    const std::function<void(const Fact&)>& record_ins,
                    const std::function<void(const Fact&)>& record_del) const;

  /// True iff some rule of stratum `si` derives `f` over `inst` as-is.
  bool Rederivable(const Fact& f, size_t si, const Instance& inst) const;

  Program program_;
  std::vector<RulePlan> plans_;
  std::vector<Stratum> strata_;
  std::unordered_map<PredId, size_t> stratum_of_;  // IDB pred -> stratum
  std::optional<Stats> bound_stats_;
};

}  // namespace mondet

#endif  // MONDET_DATALOG_EVAL_PLAN_H_
