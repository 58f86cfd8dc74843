#ifndef MONDET_DATALOG_EVAL_PLAN_H_
#define MONDET_DATALOG_EVAL_PLAN_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/instance.h"
#include "base/stats.h"
#include "datalog/kernel.h"
#include "datalog/program.h"
#include "datalog/strata.h"

namespace mondet {

/// Evaluation knobs for CompiledProgram::Eval / FpEval.
struct EvalOptions {
  /// Ignored: Eval runs on the calling thread. Kept only because
  /// perfbench/cpp/check_workload.cc sets it; it goes with the next
  /// benchmark change (ROADMAP.md).
  int num_threads = 0;
  /// Plan from this (possibly stale) snapshot instead of collecting live
  /// statistics; suppresses in-run re-planning and bypasses the
  /// stats_min_facts gate. Stale stats can only produce slower orders,
  /// never wrong results. Not owned; must outlive the Eval call.
  const Stats* stats = nullptr;
  /// The planner's size gate, the one switch between planned and stored
  /// join orders. From this many input facts on, Eval plans by estimated
  /// selectivity from exact statistics of the evolving result (collected
  /// at the start of the run, the changed predicates recounted per
  /// stratum and per re-plan) and re-plans as the relations grow
  /// (docs/EVALUATION.md documents the cost model). Below it, planning
  /// cannot pay for itself, so Eval runs the stored orders: the
  /// compile-time EDB-first greedy ones, or the ones BindStats set. The
  /// per-run cost — one Collect with a sort per column plus a
  /// SelectivityAtomOrder pass per rule — takes tens of µs, which
  /// dominates a µs-scale eval outright (a view image of a small query
  /// approximation is one), so the gate sits at 64 facts. EvalFrom
  /// applies it to the facts a continuation adds, so the checker's walk,
  /// which adds a few expansions per evaluation, runs the stored orders.
  /// Set to 0 to force live planning on any input (the differential tests
  /// do), or to the largest size_t to run the stored orders on any input
  /// (the plan-differential oracle's second arm and the _StaticPlan bench
  /// rows do); a caller-supplied `stats` snapshot bypasses the gate.
  size_t stats_min_facts = 64;
  /// Ignored: Eval has no dataflow pass. Kept only because
  /// perfbench/cpp/check_workload.cc sets it; it goes with the next
  /// benchmark change (ROADMAP.md).
  bool dataflow_prune = true;
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
/// rederived), which stay zero on the insert-only Eval path; its
/// join_probes are the rows and membership probes of its join.
struct EvalStats {
  size_t iterations = 0;
  size_t facts_derived = 0;
  size_t facts_retracted = 0;  // facts removed by Maintain
  size_t overdeleted = 0;      // Maintain: facts disproved and removed
  size_t rederived = 0;        // Maintain: of those, put back
  size_t join_probes = 0;
  size_t replans = 0;
  // Always 0: Eval skips no rules. Kept only because
  // perfbench/cpp/fixpoint_workload.cc reads it; it goes with the next
  // benchmark change (ROADMAP.md).
  size_t rules_pruned = 0;
  // Sum over strata (see StratumStats); zero for Maintain.
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
/// one batch both inserts and deletes a fact). ApplyBatch performs this
/// normalization for raw batches.
struct FactDelta {
  std::vector<Fact> inserts;
  std::vector<Fact> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
};

/// Applies one raw batch to `base` — new base = (old ∖ deletes) ∪
/// inserts — and returns the FactDelta that actually happened. The batch
/// need not be normalized: duplicate inserts, inserts of present facts
/// and deletes of absent facts drop out, and a fact on both sides counts
/// as inserted (an absent one is added, a present one stays). `base` sees
/// the inserts in order, then the deletes.
FactDelta ApplyBatch(const std::vector<Fact>& inserts,
                     const std::vector<Fact>& deletes, Instance& base);

/// Outcome of one Maintain call: the net membership changes of the
/// maintained fixpoint (every fact that appeared / disappeared, in the
/// deterministic order they were recorded) plus the Backward/Forward
/// counters. Consumers project these deltas further — MaintainedImage
/// filters them to the view predicates to keep the view image current.
struct MaintainResult {
  std::vector<Fact> inserts;  // net facts added to the fixpoint
  std::vector<Fact> deletes;  // net facts removed from it
  size_t overdeleted = 0;     // facts disproved and removed, all strata
  size_t rederived = 0;       // of those, put back by the insert phase
};

/// Description of one precomputed join order of a CompiledProgram, for
/// plan-level lints (analysis/) and debugging: the body-atom visit order
/// of rule `rule` when seeded from `delta_atom` (-1 = the initial full
/// join, otherwise a body-atom index whose variables start bound).
struct JoinOrderDesc {
  size_t rule = 0;
  int delta_atom = -1;
  std::vector<uint32_t> order;  // body atom indices, join order
  // Estimated intermediate rows after each step; empty unless stats are
  // bound (CompiledProgram::BindStats).
  std::vector<double> est_rows;
};

/// A Datalog program compiled for repeated semi-naive evaluation.
///
/// Compilation takes its strata from Stratify (datalog/strata.h) — the
/// SCCs of the IDB dependency graph, in topological order — and
/// precomputes per-rule join orderings: one for the initial full join and
/// one per recursive body atom (the semi-naive "delta" seat). Without
/// statistics the compile-time orders come from the shared
/// GreedyAtomOrder heuristic (EDB atoms first); BindStats re-plans them
/// under the selectivity cost model. Eval
/// runs these stored orders on inputs below EvalOptions::stats_min_facts
/// and plans from live statistics from that size on.
/// Construct once and Eval many times; the per-rule plans and strata are
/// reused across calls — and the same object serves the analyzer's plan
/// lints (AnalysisOptions::compiled) and evaluation, so lint and run judge
/// identical plans. Eval and EvalFrom join through compiled kernels
/// (datalog/kernel.h), lowering each (rule, seat, join order) on first use
/// into a cache this object keeps for its lifetime, and Maintain plans its
/// join orders on first use the same way. They are const but fill those
/// caches, so one object must not be evaluated or maintained from two
/// threads at once.
class CompiledProgram {
 public:
  explicit CompiledProgram(const Program& program);

  /// Re-plans the stored join orders under the selectivity cost model of
  /// `stats` and keeps each step's estimated intermediate size. Two
  /// readers: DescribePlans reports the estimates (so plan lints and the
  /// CLI's plan report judge the plans against real numbers), and Eval
  /// runs the re-planned orders on every input below the
  /// EvalOptions::stats_min_facts gate (mondet_cli binds instance
  /// statistics and evaluates with the same program).
  void BindStats(const Stats& stats);

  /// FPEval(Π, I) (Sec. 2): all facts of `input` plus every derivable IDB
  /// fact, over the same elements. Single-threaded and deterministic for
  /// any statistics (plans affect order of exploration, not the result).
  /// When `stats` is non-null the run's counters are accumulated into it.
  Instance Eval(const Instance& input, EvalStats* stats = nullptr,
                const EvalOptions& options = {}) const;

  /// Continues semi-naive evaluation in place: afterwards `inst` holds
  /// FPEval of its facts. The facts below global id `first_new` must be a
  /// fixpoint of this program, and no fact may have been removed since,
  /// so each predicate's new facts are a suffix of its rows. Each
  /// stratum, in order, seeds every body atom whose predicate has new
  /// rows (an EDB, a lower stratum's or its own) from them, joining the
  /// other atoms over the whole instance, then runs the usual delta
  /// rounds. `first_new == 0` is Eval's run, in place and at default
  /// options (its initial round is the full join, so empty-body rules
  /// fire); otherwise the result equals Eval's as a set, in another fact
  /// order. The planner's size gate counts the new facts. When `stats`
  /// is non-null the run's counters are accumulated into it.
  void EvalFrom(Instance& inst, uint32_t first_new,
                EvalStats* stats = nullptr) const;

  /// Incremental view maintenance: updates `inst` in place so it equals
  /// Eval(base) for the *new* base as a fact set, given that it equaled
  /// Eval of the old base as a fact set (the headline contract,
  /// tests/maintenance_differential_test.cc). `base` is the
  /// already-mutated new base instance; `delta` lists its exact
  /// membership changes (see FactDelta).
  /// Every stratum is maintained by Backward/Forward (Motik, Nenov, Piro,
  /// Horrocks, AAAI 2015): each fact that may have lost a derivation is
  /// kept if a backward search finds it another proof over the new lower
  /// strata and the stratum facts not disproved, and disproved otherwise;
  /// the disproved facts go, then semi-naive insertion runs. A write
  /// touches the facts that lost a derivation and their proofs, not the
  /// whole strongly connected closure. A non-recursive stratum is the
  /// case without stratum atoms: a candidate stays if and only if the new
  /// base holds it or one head-bound join over the new lower strata finds
  /// a derivation. The net changes (old ∖ new, then new ∖ old, per
  /// stratum in sorted fact order) do not depend on the search order.
  /// Single-threaded and deterministic: the same schedule always yields
  /// the same instance, in the same row order. When `stats` is non-null
  /// the call's counters accumulate into it.
  MaintainResult Maintain(Instance& inst, const Instance& base,
                          const FactDelta& delta,
                          EvalStats* stats = nullptr) const;

  size_t num_strata() const { return strata_.size(); }
  const Program& program() const { return program_; }

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
  /// A kernel lowered from one seat under one join order.
  struct LoweredKernel {
    std::vector<uint32_t> order;
    JoinKernel kernel;
  };
  struct RulePlan {
    QAtom head;
    std::vector<QAtom> body;
    size_t num_vars = 0;
    std::vector<int> recursive_atoms;  // Stratify's, for this rule
    // seats[0]: the initial full join; seats[1 + i]: recursive_atoms[i]
    // as the delta seat. orders/est_rows align with seats; est_rows
    // entries are empty unless stats are bound.
    std::vector<SeatShape> seats;
    std::vector<std::vector<uint32_t>> orders;
    std::vector<std::vector<double>> est_rows;
    // The kernels Eval has lowered so far, one per join order. An order
    // also names its seat: it lists every body atom but the seat's delta
    // atom. A kernel depends on nothing but (rule, seat, order), so the
    // cache is never invalidated; list nodes keep the addresses a round's
    // work items hold stable while Eval appends.
    mutable std::list<LoweredKernel> kernels;
    // EvalFrom's seats at non-recursive body atoms, by body index: the
    // kernel seeded at that atom under its compile-time order, lowered on
    // first use. Empty until the rule first needs one, then sized once,
    // so the kernels' addresses stay put.
    mutable std::vector<std::optional<JoinKernel>> atom_seats;
    // Maintain's join orders (see MatchOrder): [0] for the backward check,
    // [1 + i] for a join seeded at body atom i. Empty until Maintain
    // first joins the rule, then sized once, so evaluating programs
    // that are never maintained plans none of them.
    mutable std::vector<std::vector<uint32_t>> match_orders;
  };
  // Its rule indices are indices into plans_ (plan index == rule index).
  using Stratum = Stratification::Stratum;
  /// Maintain's change log: the net membership changes recorded so far,
  /// each in record order, over the fixpoint's vocabulary and elements.
  /// The old state is current − added + removed. A stratum writes the log
  /// only after its joins, so row spans into it stay valid while seeding.
  struct ChangeLog {
    Instance added;
    Instance removed;

    explicit ChangeLog(const Instance& inst)
        : added(inst.vocab()), removed(inst.vocab()) {
      added.EnsureElements(inst.num_elements());
      removed.EnsureElements(inst.num_elements());
    }
    bool Touched(PredId pred) const {
      return added.NumRows(pred) > 0 || removed.NumRows(pred) > 0;
    }
  };
  /// One unit of a semi-naive round: `*kernel` run as a full join, or
  /// seeded from each row in [first, end) of its seat predicate.
  struct WorkItem {
    const JoinKernel* kernel = nullptr;
    uint32_t first = 0;
    uint32_t end = 0;
  };

  /// The planning inputs of `plan`'s rule seeded at body atom `seat` (-1
  /// = the full join).
  static SeatShape MakeSeatShape(const RulePlan& plan, int seat);

  /// Computes the join order for seat `shape` of `plan`:
  /// selectivity-scored when `stats` is set, EDB-first greedy otherwise.
  /// `est_rows`, if non-null, receives the per-step estimates (cleared
  /// when no stats).
  std::vector<uint32_t> PlanOrder(const RulePlan& plan,
                                  const SeatShape& shape, const Stats* stats,
                                  std::vector<double>* est_rows) const;

  /// The kernel seeded at non-recursive body atom `atom` of `plan` under
  /// the compile-time order: looked up in O(1), lowered on first use.
  const JoinKernel* AtomSeatKernel(const RulePlan& plan, int atom) const;

  /// The stratum loop Eval and EvalFrom share: evaluates every stratum,
  /// in order, over `result`, whose facts below `first_new` are a
  /// fixpoint (see EvalFrom; 0 = a full run). Accumulates the run's
  /// counters, timed from `t_start`, into `stats` if non-null.
  void RunStrata(Instance& result, uint32_t first_new,
                 const EvalOptions& options,
                 std::chrono::steady_clock::time_point t_start,
                 EvalStats* stats) const;

  /// Maintain's join order for `plan` seeded at body atom `seat`, or for
  /// the backward check (seat -1), planned like the compile-time orders
  /// (MakeSeatShape/PlanOrder) with the seat's variables, or the head's,
  /// bound: a greedy order over the bound variables, so Maintain's work
  /// does not depend on the order a rule's body is written in. Lists
  /// every body atom but the seat. Every seat of the rule is planned on
  /// its first call.
  const std::vector<uint32_t>& MatchOrder(const RulePlan& plan,
                                          int seat) const;

  /// The maintenance engine's join: matches the body atoms order[k..] of
  /// `plan` in that order (the seat, whose variables `map` pre-binds, is
  /// not in it) and calls `out(map)` once per complete match; `out`
  /// returns false to stop the enumeration early (the backward search
  /// stops at a derivation that proves its fact). Atoms flagged in
  /// `read_old` (by body index) read the *old* state, reconstructed from
  /// the current instance and the change log (current − added + removed);
  /// the rest read the current instance directly, a fully bound one by a
  /// single membership probe. Adds each candidate row and each membership
  /// probe to `probes`. Returns false iff some `out` call stopped the
  /// enumeration. Defined and instantiated in eval_plan.cc only.
  template <class Out>
  bool MatchAtoms(const RulePlan& plan, std::span<const uint32_t> order,
                  size_t k, const std::vector<uint8_t>& read_old,
                  const Instance& inst, const ChangeLog& log, size_t& probes,
                  std::vector<ElemId>& map, Out&& out) const;

  /// Backward/Forward maintenance of stratum `si` (see Maintain): appends
  /// the stratum's net changes to `log` and adds its join work and
  /// counters to `run`.
  void MaintainBF(size_t si, const Instance& base,
                  const std::vector<const Fact*>& base_ins,
                  const std::vector<const Fact*>& base_del, Instance& inst,
                  ChangeLog& log, EvalStats& run) const;

  Program program_;
  std::vector<RulePlan> plans_;
  std::vector<Stratum> strata_;
  std::unordered_map<PredId, size_t> stratum_of_;  // IDB pred -> stratum
};

}  // namespace mondet

#endif  // MONDET_DATALOG_EVAL_PLAN_H_
