#include "datalog/eval_plan.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "base/check.h"
#include "base/homomorphism.h"
#include "base/scc.h"

namespace mondet {

void EvalStats::Accumulate(const EvalStats& other) {
  iterations += other.iterations;
  facts_derived += other.facts_derived;
  facts_retracted += other.facts_retracted;
  overdeleted += other.overdeleted;
  rederived += other.rederived;
  join_probes += other.join_probes;
  replans += other.replans;
  stats_facts_counted += other.stats_facts_counted;
  wall_seconds += other.wall_seconds;
  strata.insert(strata.end(), other.strata.begin(), other.strata.end());
}

std::string EvalStats::Summary() const {
  std::ostringstream os;
  os << "iters=" << iterations << " derived=" << facts_derived;
  if (facts_retracted + overdeleted + rederived > 0) {
    os << " retracted=" << facts_retracted << " overdeleted=" << overdeleted
       << " rederived=" << rederived;
  }
  os << " probes=" << join_probes << " replans=" << replans;
  os << " stats_counted=" << stats_facts_counted << " strata=" << strata.size()
     << " wall_ms=" << wall_seconds * 1000.0;
  return os.str();
}

int ResolveEvalThreads(int) { return 1; }

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string FormatEst(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

}  // namespace

CompiledProgram::CompiledProgram(const Program& program) : program_(program) {
  // Dense node ids for the IDB predicates, sorted for determinism.
  std::vector<PredId> idbs(program_.Idbs().begin(), program_.Idbs().end());
  std::sort(idbs.begin(), idbs.end());
  std::unordered_map<PredId, int> node_of;
  for (size_t i = 0; i < idbs.size(); ++i) {
    node_of[idbs[i]] = static_cast<int>(i);
  }
  // Edge P -> Q when Q occurs in the body of a rule with head P.
  std::vector<std::vector<int>> adj(idbs.size());
  for (const Rule& rule : program_.rules()) {
    int from = node_of.at(rule.head.pred);
    for (const QAtom& a : rule.body) {
      auto it = node_of.find(a.pred);
      if (it != node_of.end()) adj[from].push_back(it->second);
    }
  }
  int num_sccs = 0;
  std::vector<int> scc = SccIds(idbs.size(), adj, &num_sccs);
  strata_.resize(num_sccs);
  for (size_t i = 0; i < idbs.size(); ++i) {
    strata_[scc[i]].preds.insert(idbs[i]);
  }

  for (const Rule& rule : program_.rules()) {
    RulePlan plan;
    plan.head = rule.head;
    plan.body = rule.body;
    plan.num_vars = rule.num_vars();
    int stratum = scc[node_of.at(rule.head.pred)];
    const auto& stratum_preds = strata_[stratum].preds;
    for (int i = 0; i < static_cast<int>(rule.body.size()); ++i) {
      if (stratum_preds.count(rule.body[i].pred)) {
        plan.recursive_atoms.push_back(i);
      }
    }
    // Fixed planning inputs per delta seat (seat 0 = the initial full
    // join), so re-planning during a run rebuilds none of this.
    plan.seats.resize(1 + plan.recursive_atoms.size());
    for (size_t s = 0; s < plan.seats.size(); ++s) {
      SeatShape& shape = plan.seats[s];
      const int skip = s == 0 ? -1 : plan.recursive_atoms[s - 1];
      shape.bound0.assign(plan.num_vars, false);
      if (skip >= 0) {
        for (VarId v : rule.body[skip].args) shape.bound0[v] = true;
      }
      for (int i = 0; i < static_cast<int>(rule.body.size()); ++i) {
        if (i == skip) continue;
        const QAtom& a = rule.body[i];
        shape.sub.push_back(std::vector<ElemId>(a.args.begin(), a.args.end()));
        shape.back.push_back(static_cast<uint32_t>(i));
      }
    }
    // Compile-time join orders, one per seat. With no instance at hand,
    // the relation-size estimate just prefers EDB atoms, which stay fixed
    // while the IDB relations grow toward the fixpoint; BindStats /
    // EvalOptions::stats_planner replace these with selectivity-scored
    // orders.
    for (size_t s = 0; s < plan.seats.size(); ++s) {
      plan.orders.push_back(PlanOrder(plan, s, nullptr, nullptr));
      plan.est_rows.emplace_back();
    }
    strata_[stratum].plans.push_back(static_cast<uint32_t>(plans_.size()));
    if (!plan.recursive_atoms.empty()) strata_[stratum].recursive = true;
    plans_.push_back(std::move(plan));
  }
  for (size_t si = 0; si < strata_.size(); ++si) {
    for (PredId p : strata_[si].preds) stratum_of_[p] = si;
  }
}

std::vector<uint32_t> CompiledProgram::PlanOrder(
    const RulePlan& plan, size_t seat, const Stats* stats,
    std::vector<double>* est_rows) const {
  const SeatShape& shape = plan.seats[seat];
  std::vector<uint32_t> sub_order;
  if (stats != nullptr) {
    sub_order = SelectivityAtomOrder(
        shape.sub, plan.num_vars,
        [&](size_t i, const std::vector<bool>& b) {
          return stats->EstimateMatches(plan.body[shape.back[i]].pred,
                                        shape.sub[i], b);
        },
        shape.bound0, est_rows);
  } else {
    sub_order = GreedyAtomOrder(
        shape.sub, plan.num_vars,
        [&](size_t i) {
          return program_.IsIdb(plan.body[shape.back[i]].pred) ? size_t{2}
                                                               : size_t{1};
        },
        shape.bound0);
    if (est_rows) est_rows->clear();
  }
  std::vector<uint32_t> order;
  order.reserve(sub_order.size());
  for (uint32_t s : sub_order) order.push_back(shape.back[s]);
  return order;
}

void CompiledProgram::BindStats(Stats stats) {
  bound_stats_ = std::move(stats);
  for (RulePlan& plan : plans_) {
    for (size_t s = 0; s < plan.seats.size(); ++s) {
      plan.orders[s] = PlanOrder(plan, s, &*bound_stats_, &plan.est_rows[s]);
    }
  }
}

std::vector<CompiledProgram::JoinOrderDesc> CompiledProgram::DescribePlans()
    const {
  // plans_ is built by iterating program_.rules() in order, so plan index
  // == rule index.
  std::vector<JoinOrderDesc> out;
  for (size_t pi = 0; pi < plans_.size(); ++pi) {
    const RulePlan& plan = plans_[pi];
    out.push_back({pi, -1, plan.orders[0], plan.est_rows[0]});
    for (size_t r = 0; r < plan.recursive_atoms.size(); ++r) {
      out.push_back({pi, plan.recursive_atoms[r], plan.orders[1 + r],
                     plan.est_rows[1 + r]});
    }
  }
  return out;
}

std::string CompiledProgram::DescribePlansText() const {
  const Vocabulary& vocab = *program_.vocab();
  std::ostringstream os;
  for (const JoinOrderDesc& d : DescribePlans()) {
    const RulePlan& plan = plans_[d.rule];
    os << "rule " << d.rule << " (" << vocab.name(plan.head.pred) << ") ";
    if (d.delta_atom < 0) {
      os << "full:";
    } else {
      os << "delta[" << d.delta_atom << ":"
         << vocab.name(plan.body[d.delta_atom].pred) << "]:";
    }
    for (size_t k = 0; k < d.order.size(); ++k) {
      os << " " << vocab.name(plan.body[d.order[k]].pred);
      if (!d.est_rows.empty()) os << "(~" << FormatEst(d.est_rows[k]) << ")";
    }
    os << "\n";
  }
  return os.str();
}

void CompiledProgram::Join(const RulePlan& plan,
                           const std::vector<uint32_t>& order, size_t depth,
                           std::vector<ElemId>& map, const Instance& target,
                           size_t* probes, DerivedBuffer* out) const {
  if (depth == order.size()) {
    std::vector<ElemId> head_args;
    head_args.reserve(plan.head.args.size());
    for (VarId v : plan.head.args) head_args.push_back(map[v]);
    // Facts already in the target are filtered here; duplicates derived
    // within the same round are deduplicated at the merge barrier.
    if (!target.HasFact(plan.head.pred, head_args)) {
      out->args.insert(out->args.end(), head_args.begin(), head_args.end());
      ++out->count;
    }
    return;
  }
  const QAtom& atom = plan.body[order[depth]];
  // Probe the tightest index available for the bound positions; a fully
  // unbound atom falls back to scanning every row of the predicate.
  std::span<const uint32_t> candidates;
  int anchor = -1;
  for (int pos = 0; pos < static_cast<int>(atom.args.size()); ++pos) {
    ElemId img = map[atom.args[pos]];
    if (img == kNoElem) continue;
    const std::span<const uint32_t> idx =
        target.RowsWith(atom.pred, pos, img);
    if (anchor < 0 || idx.size() < candidates.size()) {
      candidates = idx;
      anchor = pos;
    }
  }
  std::vector<VarId> bound_here;
  auto try_row = [&](uint32_t row) {
    const std::span<const ElemId> targs = target.Args(atom.pred, row);
    bound_here.clear();
    bool ok = true;
    for (size_t pos = 0; pos < atom.args.size(); ++pos) {
      VarId v = atom.args[pos];
      if (map[v] == kNoElem) {
        map[v] = targs[pos];
        bound_here.push_back(v);
      } else if (map[v] != targs[pos]) {
        ok = false;
        break;
      }
    }
    if (ok) Join(plan, order, depth + 1, map, target, probes, out);
    for (VarId v : bound_here) map[v] = kNoElem;
  };
  if (anchor < 0) {
    const uint32_t n = target.NumRows(atom.pred);
    *probes += n;
    for (uint32_t row = 0; row < n; ++row) try_row(row);
  } else {
    *probes += candidates.size();
    for (uint32_t row : candidates) try_row(row);
  }
}

void CompiledProgram::RunItem(const WorkItem& item, const Instance& target,
                              size_t* probes, DerivedBuffer* out) const {
  if (item.kernel != nullptr) {
    if (item.rec < 0) {
      RunKernelFull(*item.kernel, target, probes, out);
    } else {
      RunKernelDelta(*item.kernel, target, *item.delta_rows, probes, out);
    }
    return;
  }
  const RulePlan& plan = plans_[item.plan];
  const std::vector<uint32_t>& order = *item.order;
  std::vector<ElemId> map(plan.num_vars, kNoElem);
  if (item.rec < 0) {
    Join(plan, order, 0, map, target, probes, out);
    return;
  }
  const QAtom& delta_atom = plan.body[plan.recursive_atoms[item.rec]];
  std::vector<VarId> bound_here;
  for (uint32_t row : *item.delta_rows) {
    const std::span<const ElemId> fargs = target.Args(item.delta_pred, row);
    bound_here.clear();
    bool ok = true;
    for (size_t pos = 0; pos < delta_atom.args.size(); ++pos) {
      VarId v = delta_atom.args[pos];
      if (map[v] == kNoElem) {
        map[v] = fargs[pos];
        bound_here.push_back(v);
      } else if (map[v] != fargs[pos]) {
        ok = false;
        break;
      }
    }
    if (ok) Join(plan, order, 0, map, target, probes, out);
    for (VarId v : bound_here) map[v] = kNoElem;
  }
}

Instance CompiledProgram::Eval(const Instance& input, EvalStats* stats,
                               const EvalOptions& options) const {
  auto t_start = std::chrono::steady_clock::now();
  Instance result = input;
  EvalStats run;

  // Which statistics drive planning this run. With the stats planner on
  // (the default) and no caller-supplied snapshot, collect live stats
  // from the evolving result and re-plan as relations grow; a snapshot
  // plans every stratum once (stale-tolerant); with the planner off —
  // or on an input too small for planning to pay for itself — the
  // compile-time orders run as-is. Live statistics are exact at every
  // planning point: a stratum only grows its own predicates, so
  // recounting the previous stratum's on entry and the stratum's own at
  // each re-plan (Stats::Refresh) covers every change since Collect.
  const bool use_stats =
      options.stats_planner &&
      (options.stats != nullptr ||
       input.num_facts() >= options.stats_min_facts);
  // Kernel lowering is a per-(rule, seat) fixed cost; below the size
  // gate the generic interpreter is strictly cheaper (kernel_min_facts
  // doc in eval_plan.h). The second clause scales the gate with program
  // size: lowering runs once per rule-seat, so a many-hundred-rule
  // program over few facts (the Thm 9 separator's machine simulations)
  // pays hundreds of lowerings that no seat's row volume can amortize —
  // kernels engage only when the input carries at least a few facts per
  // rule. The gate reads the *input* size, not the running fixpoint, so
  // a whole Eval is one plane or the other — switching planes mid-run
  // would be correct (they are bit-identical) but would waste the
  // already-built kernels.
  const bool use_kernels =
      options.compiled_kernels &&
      input.num_facts() >= options.kernel_min_facts &&
      (options.kernel_min_facts == 0 ||
       input.num_facts() >= plans_.size() * 4);
  const bool live_stats = use_stats && options.stats == nullptr;
  Stats live;
  if (live_stats) live = Stats::Collect(result);
  const Stats* planning =
      use_stats ? (options.stats ? options.stats : &live) : nullptr;

  // Runs one round of work items against `result` as it stood at the
  // round's start, then merges their derivations into it in item order
  // and returns the newly added facts (the delta) as global fact ids into
  // `result`. Buffering until the merge is the semi-naive round barrier:
  // a round joins only facts of earlier rounds.
  auto run_round = [&](const std::vector<WorkItem>& items,
                       StratumStats* ss) {
    std::vector<DerivedBuffer> derived(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      RunItem(items[i], result, &ss->join_probes, &derived[i]);
    }
    std::vector<uint32_t> added;
    for (size_t i = 0; i < items.size(); ++i) {
      const RulePlan& plan = plans_[items[i].plan];
      const size_t ar = plan.head.args.size();
      const ElemId* a = derived[i].args.data();
      for (size_t j = 0; j < derived[i].count; ++j) {
        if (result.AddFact(plan.head.pred,
                           std::span<const ElemId>(a + j * ar, ar))) {
          added.push_back(static_cast<uint32_t>(result.num_facts() - 1));
        }
      }
    }
    ss->facts_derived += added.size();
    return added;
  };

  // Preds of the previous stratum, whose live counts go stale on entry to
  // the next one.
  std::vector<PredId> prev_preds;

  for (const Stratum& stratum : strata_) {
    StratumStats ss;
    auto t0 = std::chrono::steady_clock::now();
    std::vector<PredId> stratum_preds(stratum.preds.begin(),
                                      stratum.preds.end());
    std::sort(stratum_preds.begin(), stratum_preds.end());
    if (live_stats && !prev_preds.empty()) {
      for (PredId p : prev_preds) {
        ss.stats_facts_counted += result.NumRows(p);
      }
      live.Refresh(result, prev_preds);
    }

    // The join orders this stratum runs with: per (plan-in-stratum, seat),
    // seat 0 = the initial full join, seat 1 + i = recursive atom i.
    // Planned from `planning` when set, else the compile-time orders.
    struct SeatPlan {
      std::vector<uint32_t> order;
      JoinKernel kernel;
      // Lazy lowering: 0 = not yet tried for the current order, 1 =
      // kernel valid, 2 = shape unsupported (interpreter). Reset to 0 on
      // every re-plan, since the kernel bakes the order in.
      uint8_t kernel_state = 0;
    };
    std::vector<std::vector<SeatPlan>> seats(stratum.plans.size());
    auto plan_seats = [&](bool initial) {
      for (size_t k = 0; k < stratum.plans.size(); ++k) {
        const RulePlan& plan = plans_[stratum.plans[k]];
        auto& sp = seats[k];
        if (initial) sp.resize(1 + plan.recursive_atoms.size());
        // After round 0 the full join (seat 0) never runs again, so
        // re-planning skips it.
        for (size_t s = initial ? 0 : 1; s < sp.size(); ++s) {
          sp[s].order = planning ? PlanOrder(plan, s, planning, nullptr)
                                 : plan.orders[s];
          // The planned order invalidates any kernel lowered from the
          // previous one; kernel_for re-lowers on the seat's next run.
          sp[s].kernel_state = 0;
        }
      }
    };
    plan_seats(true);

    // Lowers seat (k, s)'s planned order into a compiled kernel on first
    // use, so evals whose seats never run (converged strata, empty delta
    // predicates, µs-scale instances) pay nothing. Called while the
    // round's work items are assembled.
    auto kernel_for = [&](size_t k, size_t s) -> const JoinKernel* {
      SeatPlan& sp = seats[k][s];
      if (sp.kernel_state == 0) {
        const RulePlan& plan = plans_[stratum.plans[k]];
        if (use_kernels &&
            KernelSupported(plan.head, plan.body, plan.num_vars)) {
          const int seat_atom =
              s == 0 ? -1 : plan.recursive_atoms[s - 1];
          sp.kernel = BuildKernel(plan.head, plan.body, plan.num_vars,
                                  seat_atom, sp.order);
          sp.kernel_state = 1;
        } else {
          sp.kernel_state = 2;
        }
      }
      return sp.kernel_state == 1 ? &sp.kernel : nullptr;
    };

    // Cardinalities the current orders were planned under; a stratum
    // relation doubling (or appearing) since then triggers a re-plan.
    std::vector<std::pair<PredId, size_t>> planned_card;
    if (live_stats) {
      planned_card.reserve(stratum_preds.size());
      for (PredId p : stratum_preds) {
        planned_card.emplace_back(p, result.NumRows(p));
      }
    }

    // Initial round: every rule of the stratum joins the full current
    // result (lower strata are saturated; input IDB facts participate,
    // as in the paper's Prop. 4 usage).
    std::vector<WorkItem> round0;
    round0.reserve(stratum.plans.size());
    for (size_t k = 0; k < stratum.plans.size(); ++k) {
      WorkItem w;
      w.plan = stratum.plans[k];
      w.order = &seats[k][0].order;
      w.kernel = kernel_for(k, 0);
      round0.push_back(w);
    }
    ss.iterations = 1;
    std::vector<uint32_t> delta = run_round(round0, &ss);
    // Delta rounds: each new derivation must use a previous-round fact in
    // some recursive body atom.
    while (!delta.empty()) {
      if (live_stats) {
        // A stratum relation appearing or doubling since the last plan
        // invalidates its estimates — but below kReplanMinFacts the joins
        // it feeds are cheaper than the re-plan itself, so let it grow.
        constexpr size_t kReplanMinFacts = 16;
        bool replan = false;
        for (const auto& [p, card] : planned_card) {
          size_t cur = result.NumRows(p);
          if (cur != card && cur >= kReplanMinFacts &&
              (card == 0 || cur >= 2 * card)) {
            replan = true;
            break;
          }
        }
        if (replan) {
          for (PredId p : stratum_preds) {
            ss.stats_facts_counted += result.NumRows(p);
          }
          live.Refresh(result, stratum_preds);
          plan_seats(false);
          for (auto& [p, card] : planned_card) {
            card = result.NumRows(p);
          }
          ++ss.replans;
        }
      }
      // Partition the delta's global ids into per-predicate row lists —
      // the coordinates kernels and the interpreter consume directly.
      std::unordered_map<PredId, std::vector<uint32_t>> by_pred;
      for (uint32_t g : delta) {
        const auto [p, row] = result.Locate(g);
        by_pred[p].push_back(row);
      }
      std::vector<WorkItem> items;
      for (size_t k = 0; k < stratum.plans.size(); ++k) {
        const uint32_t pi = stratum.plans[k];
        const RulePlan& plan = plans_[pi];
        for (int r = 0; r < static_cast<int>(plan.recursive_atoms.size());
             ++r) {
          // MONDET_FAULT=skip-delta-seat never schedules the last
          // recursive delta seat of a rule — the classic semi-naive
          // omission, which the differential oracles must catch.
          if (FaultInjected("skip-delta-seat") &&
              r == static_cast<int>(plan.recursive_atoms.size()) - 1) {
            continue;
          }
          auto it = by_pred.find(plan.body[plan.recursive_atoms[r]].pred);
          if (it == by_pred.end()) continue;
          WorkItem w;
          w.plan = pi;
          w.rec = r;
          w.delta_pred = it->first;
          w.delta_rows = &it->second;
          w.order = &seats[k][1 + r].order;
          w.kernel = kernel_for(k, 1 + r);
          items.push_back(w);
        }
      }
      if (items.empty()) break;
      ++ss.iterations;
      delta = run_round(items, &ss);
    }
    ss.wall_seconds = SecondsSince(t0);
    run.iterations += ss.iterations;
    run.facts_derived += ss.facts_derived;
    run.join_probes += ss.join_probes;
    run.replans += ss.replans;
    run.stats_facts_counted += ss.stats_facts_counted;
    run.strata.push_back(std::move(ss));
    prev_preds = std::move(stratum_preds);
  }
  run.wall_seconds = SecondsSince(t_start);
  if (stats) stats->Accumulate(run);
  return result;
}

namespace {

/// Binds the variables of `atom` to the argument tuple `args`, appending
/// every newly-bound variable to `bound`. Returns false on a clash (a
/// repeated variable or a pre-bound one disagreeing with `args`); the
/// caller unbinds `bound` either way.
bool BindArgs(const QAtom& atom, std::span<const ElemId> args,
              std::vector<ElemId>& map, std::vector<VarId>* bound) {
  for (size_t pos = 0; pos < atom.args.size(); ++pos) {
    VarId v = atom.args[pos];
    if (map[v] == kNoElem) {
      map[v] = args[pos];
      bound->push_back(v);
    } else if (map[v] != args[pos]) {
      return false;
    }
  }
  return true;
}

bool BindFact(const QAtom& atom, const Fact& f, std::vector<ElemId>& map,
              std::vector<VarId>* bound) {
  return BindArgs(atom, f.args, map, bound);
}

void Unbind(const std::vector<VarId>& bound, std::vector<ElemId>& map) {
  for (VarId v : bound) map[v] = kNoElem;
}

}  // namespace

bool CompiledProgram::MatchAtoms(
    const RulePlan& plan, int seat, size_t k,
    const std::vector<uint8_t>& read_old, const Instance& inst,
    const ChangeMap& changed, std::vector<ElemId>& map,
    const std::function<bool(const std::vector<ElemId>&)>& out) const {
  if (k == plan.body.size()) return out(map);
  if (static_cast<int>(k) == seat) {
    return MatchAtoms(plan, seat, k + 1, read_old, inst, changed, map, out);
  }
  const QAtom& atom = plan.body[k];
  const PredChange* pc = nullptr;
  if (read_old[k]) {
    auto it = changed.find(atom.pred);
    if (it != changed.end()) pc = &it->second;
  }
  // Current-state candidates through the tightest index available for the
  // bound positions (as in Join); an old-state read additionally skips
  // facts inserted since the old snapshot and replays the deleted ones.
  std::span<const uint32_t> candidates;
  int anchor = -1;
  for (int pos = 0; pos < static_cast<int>(atom.args.size()); ++pos) {
    ElemId img = map[atom.args[pos]];
    if (img == kNoElem) continue;
    const std::span<const uint32_t> idx = inst.RowsWith(atom.pred, pos, img);
    if (anchor < 0 || idx.size() < candidates.size()) {
      candidates = idx;
      anchor = pos;
    }
  }
  std::vector<VarId> bound_here;
  // Returns false when the enumeration must stop (out() vetoed).
  auto try_row = [&](uint32_t row) {
    const std::span<const ElemId> targs = inst.Args(atom.pred, row);
    if (pc &&
        pc->ins_set.find(FactView{atom.pred, targs}) != pc->ins_set.end()) {
      return true;
    }
    bound_here.clear();
    if (BindArgs(atom, targs, map, &bound_here) &&
        !MatchAtoms(plan, seat, k + 1, read_old, inst, changed, map, out)) {
      Unbind(bound_here, map);
      return false;
    }
    Unbind(bound_here, map);
    return true;
  };
  if (anchor < 0) {
    const uint32_t n = inst.NumRows(atom.pred);
    for (uint32_t row = 0; row < n; ++row) {
      if (!try_row(row)) return false;
    }
  } else {
    for (uint32_t row : candidates) {
      if (!try_row(row)) return false;
    }
  }
  if (pc) {
    for (const Fact& df : pc->del) {
      bound_here.clear();
      if (BindFact(atom, df, map, &bound_here) &&
          !MatchAtoms(plan, seat, k + 1, read_old, inst, changed, map, out)) {
        Unbind(bound_here, map);
        return false;
      }
      Unbind(bound_here, map);
    }
  }
  return true;
}

Materialization CompiledProgram::Materialize(const Instance& input,
                                             EvalStats* stats,
                                             const EvalOptions& options) const {
  Materialization m{Eval(input, stats, options), Stats()};
  const ChangeMap no_changes;
  for (const Stratum& st : strata_) {
    // Counting is unsound under recursion (a fact may transitively
    // support itself), so recursive SCC strata keep the membership-only
    // count of 1 and Maintain uses DRed for them.
    if (st.recursive) continue;
    std::unordered_map<Fact, uint64_t, FactHash> dc;
    for (uint32_t pi : st.plans) {
      const RulePlan& plan = plans_[pi];
      std::vector<uint8_t> read_old(plan.body.size(), 0);
      std::vector<ElemId> map(plan.num_vars, kNoElem);
      MatchAtoms(plan, /*seat=*/-1, 0, read_old, m.inst, no_changes, map,
                 [&](const std::vector<ElemId>& mm) {
                   std::vector<ElemId> args;
                   args.reserve(plan.head.args.size());
                   for (VarId v : plan.head.args) args.push_back(mm[v]);
                   ++dc[Fact(plan.head.pred, std::move(args))];
                   return true;
                 });
    }
    std::vector<PredId> preds(st.preds.begin(), st.preds.end());
    std::sort(preds.begin(), preds.end());
    for (PredId p : preds) {
      const uint32_t n = m.inst.NumRows(p);
      for (uint32_t row = 0; row < n; ++row) {
        const std::span<const ElemId> args = m.inst.Args(p, row);
        const Fact f(p, std::vector<ElemId>(args.begin(), args.end()));
        auto it = dc.find(f);
        uint64_t c = (it != dc.end() ? it->second : 0) +
                     (input.HasFact(f) ? 1 : 0);
        // Every fixpoint fact has base membership or a rule derivation.
        MONDET_CHECK(c > 0 && "Materialize: unsupported fixpoint fact");
        m.inst.SetCountAt(p, row, c);
      }
    }
  }
  m.stats = Stats::Collect(m.inst);
  return m;
}

MaintainResult CompiledProgram::Maintain(Materialization& m,
                                         const Instance& base,
                                         const FactDelta& delta,
                                         EvalStats* stats) const {
  auto t_start = std::chrono::steady_clock::now();
  Instance& inst = m.inst;
  inst.EnsureElements(base.num_elements());
  MaintainResult res;
  ChangeMap changed;
  std::function<void(const Fact&)> record_ins = [&](const Fact& f) {
    PredChange& pc = changed[f.pred];
    pc.ins.push_back(f);
    pc.ins_set.insert(f);
    res.inserts.push_back(f);
  };
  std::function<void(const Fact&)> record_del = [&](const Fact& f) {
    changed[f.pred].del.push_back(f);
    res.deletes.push_back(f);
  };

  // Split the base delta by layer: EDB changes apply directly (EDB
  // membership *is* base membership), IDB base changes fold into their
  // own stratum's pass — as ±1 derivation-count contributions on the
  // counting path, as seeds on the DRed path.
  std::vector<std::vector<const Fact*>> base_ins_at(strata_.size());
  std::vector<std::vector<const Fact*>> base_del_at(strata_.size());
  for (const Fact& f : delta.inserts) {
    if (program_.IsIdb(f.pred)) {
      base_ins_at[stratum_of_.at(f.pred)].push_back(&f);
    } else {
      MONDET_CHECK(inst.AddFact(f) && "Maintain: unnormalized insert");
      record_ins(f);
    }
  }
  for (const Fact& f : delta.deletes) {
    if (program_.IsIdb(f.pred)) {
      base_del_at[stratum_of_.at(f.pred)].push_back(&f);
    } else {
      MONDET_CHECK(inst.RemoveFact(f) && "Maintain: unnormalized delete");
      record_del(f);
    }
  }

  for (size_t si = 0; si < strata_.size(); ++si) {
    const Stratum& st = strata_[si];
    // Skip untouched strata: no base changes here and no membership
    // change on any body predicate. This skip is what makes small deltas
    // cheap — churn far from a stratum never re-runs its joins.
    bool touched = !base_ins_at[si].empty() || !base_del_at[si].empty();
    for (uint32_t pi : st.plans) {
      if (touched) break;
      for (const QAtom& a : plans_[pi].body) {
        auto it = changed.find(a.pred);
        if (it != changed.end() &&
            (!it->second.ins.empty() || !it->second.del.empty())) {
          touched = true;
          break;
        }
      }
    }
    if (!touched) continue;
    if (st.recursive) {
      MaintainDRed(si, base, base_ins_at[si], base_del_at[si], inst, changed,
                   &res, record_ins, record_del);
    } else {
      MaintainCounting(si, base_ins_at[si], base_del_at[si], inst, changed,
                       record_ins, record_del);
    }
  }

  // One statistics fold for the whole batch: the recorded lists are the
  // exact net membership changes, so Apply's contract equation holds.
  m.stats.Apply(inst, res.inserts, res.deletes);
  if (stats) {
    EvalStats run;
    run.iterations = 1;
    run.facts_derived = res.inserts.size();
    run.facts_retracted = res.deletes.size();
    run.overdeleted = res.overdeleted;
    run.rederived = res.rederived;
    run.stats_facts_counted = res.inserts.size() + res.deletes.size();
    run.wall_seconds = SecondsSince(t_start);
    stats->Accumulate(run);
  }
  return res;
}

void CompiledProgram::MaintainCounting(
    size_t si, const std::vector<const Fact*>& base_ins,
    const std::vector<const Fact*>& base_del, Instance& inst,
    ChangeMap& changed, const std::function<void(const Fact&)>& record_ins,
    const std::function<void(const Fact&)>& record_del) const {
  const Stratum& st = strata_[si];
  // Signed derivation-count deltas for this stratum's facts; base
  // membership counts as one more derivation.
  std::unordered_map<Fact, int64_t, FactHash> dcount;
  for (const Fact* f : base_ins) ++dcount[*f];
  for (const Fact* f : base_del) --dcount[*f];
  for (uint32_t pi : st.plans) {
    const RulePlan& plan = plans_[pi];
    // Ordered-delta formula: Δ(A1 ⋈ … ⋈ Ak) = Σ_i new(A<i) ⋈ Δi ⋈
    // old(A>i). Exact by telescoping — each appearing or disappearing
    // derivation is counted exactly once, whichever atoms changed.
    for (size_t i = 0; i < plan.body.size(); ++i) {
      auto it = changed.find(plan.body[i].pred);
      if (it == changed.end()) continue;
      std::vector<uint8_t> read_old(plan.body.size(), 0);
      for (size_t j = i + 1; j < plan.body.size(); ++j) read_old[j] = 1;
      auto seed = [&](const Fact& df, int64_t sign) {
        std::vector<ElemId> map(plan.num_vars, kNoElem);
        std::vector<VarId> bound;
        if (BindFact(plan.body[i], df, map, &bound)) {
          MatchAtoms(plan, static_cast<int>(i), 0, read_old, inst, changed,
                     map, [&](const std::vector<ElemId>& mm) {
                       std::vector<ElemId> args;
                       args.reserve(plan.head.args.size());
                       for (VarId v : plan.head.args) args.push_back(mm[v]);
                       dcount[Fact(plan.head.pred, std::move(args))] += sign;
                       return true;
                     });
        }
      };
      for (const Fact& df : it->second.ins) seed(df, +1);
      for (const Fact& df : it->second.del) seed(df, -1);
    }
  }
  // Apply the count deltas in sorted fact order so the instance mutation
  // sequence — and with it the stored fact order — is deterministic.
  std::vector<std::pair<Fact, int64_t>> items(dcount.begin(), dcount.end());
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [f, d] : items) {
    if (d == 0) continue;
    const int64_t oldc = static_cast<int64_t>(inst.FactCount(f));
    const int64_t newc = oldc + d;
    MONDET_CHECK(newc >= 0 && "Maintain: derivation count went negative");
    if (oldc == 0 && newc > 0) {
      MONDET_CHECK(inst.AddFact(f));
      inst.SetFactCount(f, static_cast<uint64_t>(newc));
      record_ins(f);
    } else if (oldc > 0 && newc == 0) {
      MONDET_CHECK(inst.RemoveFact(f));
      record_del(f);
    } else if (newc > 0) {
      inst.SetFactCount(f, static_cast<uint64_t>(newc));
    }
  }
}

bool CompiledProgram::Rederivable(const Fact& f, size_t si,
                                  const Instance& inst) const {
  const Stratum& st = strata_[si];
  const ChangeMap no_changes;
  for (uint32_t pi : st.plans) {
    const RulePlan& plan = plans_[pi];
    if (plan.head.pred != f.pred) continue;
    std::vector<ElemId> map(plan.num_vars, kNoElem);
    bool ok = true;
    for (size_t pos = 0; pos < plan.head.args.size(); ++pos) {
      VarId v = plan.head.args[pos];
      if (map[v] == kNoElem) {
        map[v] = f.args[pos];
      } else if (map[v] != f.args[pos]) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    std::vector<uint8_t> read_old(plan.body.size(), 0);
    // One surviving derivation is a witness: stop at the first match.
    if (!MatchAtoms(plan, /*seat=*/-1, 0, read_old, inst, no_changes, map,
                    [](const std::vector<ElemId>&) { return false; })) {
      return true;
    }
  }
  return false;
}

void CompiledProgram::MaintainDRed(
    size_t si, const Instance& base, const std::vector<const Fact*>& base_ins,
    const std::vector<const Fact*>& base_del, Instance& inst,
    ChangeMap& changed, MaintainResult* res,
    const std::function<void(const Fact&)>& record_ins,
    const std::function<void(const Fact&)>& record_del) const {
  const Stratum& st = strata_[si];

  // Overdelete: every stratum fact with some old-state derivation that
  // uses a deleted fact — seeded from lower-stratum membership deletions
  // and base-deleted stratum facts, propagated semi-naively through the
  // SCC. Lower predicates read the old state (current − ins + del);
  // stratum predicates read the instance, which still holds the old
  // stratum relations here (classic DRed joins over the full old
  // database, which is what makes the deletion an over-approximation).
  std::unordered_set<Fact, FactHash> over;
  std::vector<Fact> odl;  // discovery order: deterministic
  auto overdelete = [&](const Fact& h) {
    if (!inst.HasFact(h)) return;
    if (over.insert(h).second) odl.push_back(h);
  };
  for (const Fact* f : base_del) overdelete(*f);
  auto lower_old = [&](const RulePlan& plan) {
    std::vector<uint8_t> ro(plan.body.size(), 0);
    for (size_t j = 0; j < plan.body.size(); ++j) {
      if (!st.preds.count(plan.body[j].pred)) ro[j] = 1;
    }
    return ro;
  };
  auto seed_deletion = [&](const RulePlan& plan, size_t i, const Fact& df,
                           const std::vector<uint8_t>& ro) {
    std::vector<ElemId> map(plan.num_vars, kNoElem);
    std::vector<VarId> bound;
    if (!BindFact(plan.body[i], df, map, &bound)) return;
    MatchAtoms(plan, static_cast<int>(i), 0, ro, inst, changed, map,
               [&](const std::vector<ElemId>& mm) {
                 std::vector<ElemId> args;
                 args.reserve(plan.head.args.size());
                 for (VarId v : plan.head.args) args.push_back(mm[v]);
                 overdelete(Fact(plan.head.pred, std::move(args)));
                 return true;
               });
  };
  for (uint32_t pi : st.plans) {
    const RulePlan& plan = plans_[pi];
    const std::vector<uint8_t> ro = lower_old(plan);
    for (size_t i = 0; i < plan.body.size(); ++i) {
      if (st.preds.count(plan.body[i].pred)) continue;
      auto it = changed.find(plan.body[i].pred);
      if (it == changed.end() || it->second.del.empty()) continue;
      for (const Fact& df : it->second.del) seed_deletion(plan, i, df, ro);
    }
  }
  for (size_t k = 0; k < odl.size(); ++k) {  // the frontier; odl grows
    const Fact f = odl[k];
    for (uint32_t pi : st.plans) {
      const RulePlan& plan = plans_[pi];
      const std::vector<uint8_t> ro = lower_old(plan);
      for (int r : plan.recursive_atoms) {
        if (plan.body[r].pred != f.pred) continue;
        seed_deletion(plan, static_cast<size_t>(r), f, ro);
      }
    }
  }

  // Remove, then rederive: a provisionally-deleted fact survives if the
  // new base holds it or some rule still derives it over the current
  // state (lower strata new, this stratum minus the provisional
  // deletions). Revivals enable more revivals; iterate to fixpoint.
  for (const Fact& f : odl) MONDET_CHECK(inst.RemoveFact(f));
  res->overdeleted += odl.size();
  std::unordered_map<Fact, bool, FactHash> was_present;
  for (const Fact& f : odl) was_present.emplace(f, true);
  std::vector<char> back(odl.size(), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t k = 0; k < odl.size(); ++k) {
      if (back[k]) continue;
      if (base.HasFact(odl[k]) || Rederivable(odl[k], si, inst)) {
        MONDET_CHECK(inst.AddFact(odl[k]));
        back[k] = 1;
        progress = true;
        ++res->rederived;
      }
    }
  }

  // Insert: semi-naive from the inserted seeds — base-inserted stratum
  // facts and lower-stratum membership insertions at every matching body
  // atom — joining the other atoms over the new state. Enumerating every
  // seed against the full new state may revisit a derivation; set
  // semantics absorbs that.
  std::vector<Fact> ifront;
  auto add_new = [&](const Fact& h) {
    if (inst.AddFact(h)) {
      was_present.emplace(h, false);
      ifront.push_back(h);
    }
  };
  auto seed_insertion = [&](const RulePlan& plan, size_t i, const Fact& df) {
    std::vector<ElemId> map(plan.num_vars, kNoElem);
    std::vector<VarId> bound;
    if (!BindFact(plan.body[i], df, map, &bound)) return;
    std::vector<uint8_t> ro(plan.body.size(), 0);
    // Derivations are collected first and added after the enumeration:
    // AddFact mutates the very indexes MatchAtoms is iterating.
    std::vector<Fact> derived;
    MatchAtoms(plan, static_cast<int>(i), 0, ro, inst, changed, map,
               [&](const std::vector<ElemId>& mm) {
                 std::vector<ElemId> args;
                 args.reserve(plan.head.args.size());
                 for (VarId v : plan.head.args) args.push_back(mm[v]);
                 derived.emplace_back(plan.head.pred, std::move(args));
                 return true;
               });
    for (const Fact& h : derived) add_new(h);
  };
  for (const Fact* f : base_ins) add_new(*f);
  for (uint32_t pi : st.plans) {
    const RulePlan& plan = plans_[pi];
    for (size_t i = 0; i < plan.body.size(); ++i) {
      if (st.preds.count(plan.body[i].pred)) continue;
      auto it = changed.find(plan.body[i].pred);
      if (it == changed.end() || it->second.ins.empty()) continue;
      for (const Fact& df : it->second.ins) seed_insertion(plan, i, df);
    }
  }
  for (size_t k = 0; k < ifront.size(); ++k) {  // the frontier; grows
    const Fact f = ifront[k];
    for (uint32_t pi : st.plans) {
      const RulePlan& plan = plans_[pi];
      for (int r : plan.recursive_atoms) {
        if (plan.body[r].pred != f.pred) continue;
        seed_insertion(plan, static_cast<size_t>(r), f);
      }
    }
  }

  // Net membership changes of this stratum, in sorted order so the
  // recorded change lists — the lower-stratum deltas of later strata —
  // are deterministic.
  std::vector<std::pair<Fact, bool>> tv(was_present.begin(),
                                        was_present.end());
  std::sort(tv.begin(), tv.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [f, was] : tv) {
    const bool now = inst.HasFact(f);
    if (was && !now) {
      record_del(f);
    } else if (!was && now) {
      record_ins(f);
    }
  }
}

}  // namespace mondet
