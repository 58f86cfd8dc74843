#include "datalog/eval_plan.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "base/check.h"
#include "base/homomorphism.h"

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

FactDelta ApplyBatch(const std::vector<Fact>& inserts,
                     const std::vector<Fact>& deletes, Instance& base) {
  FactDelta delta;
  for (const Fact& f : inserts) {
    if (base.AddFact(f)) delta.inserts.push_back(f);
  }
  // Inserts win: a raw insert listed among the deletes stays.
  const std::unordered_set<Fact, FactHash> raw_ins(inserts.begin(),
                                                   inserts.end());
  for (const Fact& f : deletes) {
    if (!raw_ins.count(f) && base.RemoveFact(f)) delta.deletes.push_back(f);
  }
  return delta;
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The first row of `pred` whose global id is at least `first_new`. With
/// nothing removed since the facts below `first_new` were added, every
/// later row's id is at least `first_new` too, so the rows from it on are
/// exactly the predicate's facts from `first_new` on.
uint32_t FirstRowFrom(const Instance& inst, PredId pred, uint32_t first_new) {
  uint32_t lo = 0;
  uint32_t hi = inst.NumRows(pred);
  if (hi == 0 || inst.GlobalOf(pred, hi - 1) < first_new) return hi;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (inst.GlobalOf(pred, mid) < first_new) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::string FormatEst(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

}  // namespace

CompiledProgram::CompiledProgram(const Program& program) : program_(program) {
  Stratification strat = Stratify(program_);
  for (size_t ri = 0; ri < program_.rules().size(); ++ri) {
    const Rule& rule = program_.rules()[ri];
    RulePlan plan;
    plan.head = rule.head;
    plan.body = rule.body;
    plan.num_vars = rule.num_vars();
    plan.recursive_atoms = std::move(strat.recursive_atoms[ri]);
    // Fixed planning inputs per delta seat (seat 0 = the initial full
    // join), so re-planning during a run rebuilds none of this.
    plan.seats.push_back(MakeSeatShape(plan, -1));
    for (int r : plan.recursive_atoms) {
      plan.seats.push_back(MakeSeatShape(plan, r));
    }
    // Compile-time join orders, one per seat. With no instance at hand,
    // the relation-size estimate just prefers EDB atoms, which stay fixed
    // while the IDB relations grow toward the fixpoint; BindStats and
    // Eval's live planner replace these with selectivity-scored orders.
    for (const SeatShape& shape : plan.seats) {
      plan.orders.push_back(PlanOrder(plan, shape, nullptr, nullptr));
      plan.est_rows.emplace_back();
    }
    plans_.push_back(std::move(plan));
  }
  strata_ = std::move(strat.strata);
  stratum_of_ = std::move(strat.stratum_of);
}

CompiledProgram::SeatShape CompiledProgram::MakeSeatShape(
    const RulePlan& plan, int seat) {
  SeatShape shape;
  shape.bound0.assign(plan.num_vars, false);
  if (seat >= 0) {
    for (VarId v : plan.body[seat].args) shape.bound0[v] = true;
  }
  for (int i = 0; i < static_cast<int>(plan.body.size()); ++i) {
    if (i == seat) continue;
    const QAtom& a = plan.body[i];
    shape.sub.push_back(std::vector<ElemId>(a.args.begin(), a.args.end()));
    shape.back.push_back(static_cast<uint32_t>(i));
  }
  return shape;
}

std::vector<uint32_t> CompiledProgram::PlanOrder(
    const RulePlan& plan, const SeatShape& shape, const Stats* stats,
    std::vector<double>* est_rows) const {
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

void CompiledProgram::BindStats(const Stats& stats) {
  for (RulePlan& plan : plans_) {
    for (size_t s = 0; s < plan.seats.size(); ++s) {
      plan.orders[s] = PlanOrder(plan, plan.seats[s], &stats,
                                 &plan.est_rows[s]);
    }
  }
}

std::vector<JoinOrderDesc> CompiledProgram::DescribePlans() const {
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

const JoinKernel* CompiledProgram::AtomSeatKernel(const RulePlan& plan,
                                                  int atom) const {
  // One slot per body atom, then the head's.
  if (plan.atom_seats.empty()) plan.atom_seats.resize(plan.body.size() + 1);
  std::optional<JoinKernel>& kernel =
      plan.atom_seats[atom < 0 ? plan.body.size() : atom];
  if (!kernel) {
    SeatShape shape = MakeSeatShape(plan, atom);
    const QAtom* seat = &plan.head;
    if (atom < 0) {
      for (VarId v : plan.head.args) shape.bound0[v] = true;
    } else {
      seat = &plan.body[atom];
    }
    kernel = BuildKernel(plan.head, plan.body, plan.num_vars, seat,
                         PlanOrder(plan, shape, nullptr, nullptr));
  }
  return &*kernel;
}

Instance CompiledProgram::Eval(const Instance& input, EvalStats* stats,
                               const EvalOptions& options) const {
  auto t_start = std::chrono::steady_clock::now();
  Instance result = input;
  RunStrata(result, {}, result.num_facts(), options, t_start, stats);
  return result;
}

void CompiledProgram::EvalFrom(Instance& inst, uint32_t first_new,
                               EvalStats* stats) const {
  auto t_start = std::chrono::steady_clock::now();
  std::vector<uint32_t> first_row;
  if (first_new > 0) {
    first_row.resize(inst.vocab()->size());
    for (PredId p = 0; p < first_row.size(); ++p) {
      first_row[p] = FirstRowFrom(inst, p, first_new);
    }
  }
  RunStrata(inst, first_row, inst.num_facts() - first_new, EvalOptions{},
            t_start, stats);
}

void CompiledProgram::RunStrata(Instance& result,
                                std::span<const uint32_t> first_row,
                                size_t new_facts, const EvalOptions& options,
                                std::chrono::steady_clock::time_point t_start,
                                EvalStats* stats) const {
  EvalStats run;

  // Which statistics drive planning this run. A caller-supplied snapshot
  // plans every stratum once (stale-tolerant). Otherwise an input of at
  // least stats_min_facts new facts collects live stats from the evolving
  // result and re-plans as relations grow, and a smaller one runs the
  // stored orders as-is. Live statistics are exact at every planning
  // point: a stratum only grows its own predicates, so recounting the
  // previous stratum's on entry and the stratum's own at each re-plan
  // (Stats::Refresh) covers every change since Collect.
  const bool use_stats =
      options.stats != nullptr || new_facts >= options.stats_min_facts;
  const bool live_stats = use_stats && options.stats == nullptr;
  Stats live;
  if (live_stats) live = Stats::Collect(result);
  const Stats* planning =
      use_stats ? (options.stats ? options.stats : &live) : nullptr;

  // Runs one round of work items against `result` as it stood at the
  // round's start, then merges their derivations into it in item order.
  // Buffering until the merge is the semi-naive round barrier: a round
  // joins only facts of earlier rounds. Eval only appends, so the round's
  // new facts of the stratum's i-th predicate (the delta) are its rows
  // from delta_first[i] to the end, in the order added.
  std::vector<uint32_t> delta_first;
  auto run_round = [&](const std::vector<WorkItem>& items,
                       const std::vector<PredId>& preds, StratumStats* ss) {
    std::vector<DerivedBuffer> derived(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      RunKernel(*items[i].kernel, result, items[i].first, items[i].end,
                &ss->join_probes, &derived[i]);
    }
    delta_first.clear();
    for (PredId p : preds) delta_first.push_back(result.NumRows(p));
    bool grew = false;
    for (size_t i = 0; i < items.size(); ++i) {
      const JoinKernel& k = *items[i].kernel;
      const size_t ar = k.head_arity;
      const ElemId* a = derived[i].args.data();
      for (size_t j = 0; j < derived[i].count; ++j) {
        if (result.AddFact(k.head_pred,
                           std::span<const ElemId>(a + j * ar, ar))) {
          ++ss->facts_derived;
          grew = true;
        }
      }
    }
    return grew;
  };

  // Preds of the previous stratum, whose live counts go stale on entry to
  // the next one.
  const std::vector<PredId>* prev_preds = nullptr;

  for (const Stratum& stratum : strata_) {
    StratumStats ss;
    auto t0 = std::chrono::steady_clock::now();
    const std::vector<PredId>& stratum_preds = stratum.preds;
    if (live_stats && prev_preds != nullptr) {
      for (PredId p : *prev_preds) {
        ss.stats_facts_counted += result.NumRows(p);
      }
      live.Refresh(result, *prev_preds);
    }

    // The join orders this stratum runs with: per (rule-in-stratum, seat),
    // seat 0 = the initial full join, seat 1 + i = recursive atom i.
    // Planned from `planning` when set, else the stored orders.
    struct SeatPlan {
      std::vector<uint32_t> order;
      const JoinKernel* kernel = nullptr;  // null until the seat first runs
    };
    std::vector<std::vector<SeatPlan>> seats(stratum.rules.size());
    auto plan_seats = [&](bool initial) {
      for (size_t k = 0; k < stratum.rules.size(); ++k) {
        const RulePlan& plan = plans_[stratum.rules[k]];
        auto& sp = seats[k];
        if (initial) sp.resize(1 + plan.recursive_atoms.size());
        // After round 0 the full join (seat 0) never runs again, so
        // re-planning skips it.
        for (size_t s = initial ? 0 : 1; s < sp.size(); ++s) {
          sp[s].order = planning
                            ? PlanOrder(plan, plan.seats[s], planning, nullptr)
                            : plan.orders[s];
          sp[s].kernel = nullptr;  // kernel_for looks the new order up
        }
      }
    };
    plan_seats(true);

    // Seat (k, s)'s kernel for its current order, looked up in the plan's
    // cache on the seat's first run under that order and lowered on a
    // miss, so seats that never run (converged strata, empty delta
    // predicates) cost nothing.
    auto kernel_for = [&](size_t k, size_t s) -> const JoinKernel* {
      SeatPlan& sp = seats[k][s];
      if (sp.kernel != nullptr) return sp.kernel;
      const RulePlan& plan = plans_[stratum.rules[k]];
      for (const LoweredKernel& lk : plan.kernels) {
        if (lk.order == sp.order) return sp.kernel = &lk.kernel;
      }
      const QAtom* seat =
          s == 0 ? nullptr : &plan.body[plan.recursive_atoms[s - 1]];
      plan.kernels.push_back({sp.order, BuildKernel(plan.head, plan.body,
                                                    plan.num_vars, seat,
                                                    sp.order)});
      return sp.kernel = &plan.kernels.back().kernel;
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

    // Initial round of a full run: every rule of the stratum joins the
    // full current result (lower strata are saturated; input IDB facts
    // participate, as in the paper's Prop. 4 usage). Of a continuation:
    // a derivation the rows before `first_row` lack uses some new row, so
    // every body atom with new rows seeds from them, at its delta seat if
    // recursive and at its atom seat otherwise.
    // MONDET_FAULT=skip-continuation-seat never seeds the atom seats, so
    // derivations through new EDB or lower-stratum facts are lost — the
    // eval-differential oracle's continuation arm and the
    // maintenance-differential oracle must catch it.
    std::vector<WorkItem> round0;
    round0.reserve(stratum.rules.size());
    for (size_t k = 0; k < stratum.rules.size(); ++k) {
      if (first_row.empty()) {
        round0.push_back({kernel_for(k, 0)});
        continue;
      }
      const RulePlan& plan = plans_[stratum.rules[k]];
      const std::vector<int>& rec = plan.recursive_atoms;  // in body order
      size_t r = 0;
      for (int i = 0; i < static_cast<int>(plan.body.size()); ++i) {
        const bool recursive = r < rec.size() && rec[r] == i;
        const PredId p = plan.body[i].pred;
        const uint32_t first = first_row[p];
        const uint32_t end = result.NumRows(p);
        if (first < end) {
          if (recursive) {
            round0.push_back({kernel_for(k, 1 + r), first, end});
          } else if (!FaultInjected("skip-continuation-seat")) {
            round0.push_back({AtomSeatKernel(plan, i), first, end});
          }
        }
        if (recursive) ++r;
      }
    }
    ss.iterations = 1;
    bool grew = run_round(round0, stratum_preds, &ss);
    // Delta rounds: each new derivation must use a previous-round fact in
    // some recursive body atom.
    while (grew) {
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
      std::vector<WorkItem> items;
      for (size_t k = 0; k < stratum.rules.size(); ++k) {
        const RulePlan& plan = plans_[stratum.rules[k]];
        for (int r = 0; r < static_cast<int>(plan.recursive_atoms.size());
             ++r) {
          // MONDET_FAULT=skip-delta-seat never schedules the last
          // recursive delta seat of a rule — the classic semi-naive
          // omission, which the differential oracles must catch.
          if (FaultInjected("skip-delta-seat") &&
              r == static_cast<int>(plan.recursive_atoms.size()) - 1) {
            continue;
          }
          // A recursive atom's predicate is one of the stratum's.
          const PredId p = plan.body[plan.recursive_atoms[r]].pred;
          const size_t i = std::lower_bound(stratum_preds.begin(),
                                            stratum_preds.end(), p) -
                           stratum_preds.begin();
          const uint32_t first = delta_first[i];
          const uint32_t end = result.NumRows(p);
          if (first == end) continue;
          items.push_back({kernel_for(k, 1 + r), first, end});
        }
      }
      if (items.empty()) break;
      ++ss.iterations;
      grew = run_round(items, stratum_preds, &ss);
    }
    ss.wall_seconds = SecondsSince(t0);
    run.iterations += ss.iterations;
    run.facts_derived += ss.facts_derived;
    run.join_probes += ss.join_probes;
    run.replans += ss.replans;
    run.stats_facts_counted += ss.stats_facts_counted;
    run.strata.push_back(std::move(ss));
    prev_preds = &stratum_preds;
  }
  run.wall_seconds = SecondsSince(t_start);
  if (stats) stats->Accumulate(run);
}

namespace {

/// The image of `atom` under the binding frame `frame`, written into
/// `out`.
void WriteImage(const QAtom& atom, std::span<const ElemId> frame,
                std::vector<ElemId>& out) {
  out.resize(atom.args.size());
  for (size_t pos = 0; pos < out.size(); ++pos) {
    out[pos] = frame[atom.args[pos]];
  }
}

/// Lexicographic (pred, args) order, as Fact::operator<.
bool ViewLess(const FactView& a, const FactView& b) {
  if (a.pred != b.pred) return a.pred < b.pred;
  return std::lexicographical_compare(a.args.begin(), a.args.end(),
                                      b.args.begin(), b.args.end());
}

}  // namespace

/// Facts back to back in one argument arena: a queue or a stack of facts
/// that allocates nothing per fact once warm. A view is valid until the
/// next Push.
class CompiledProgram::FactList {
 public:
  void Push(PredId pred, std::span<const ElemId> args) {
    preds_.push_back(pred);
    args_.insert(args_.end(), args.begin(), args.end());
    ends_.push_back(static_cast<uint32_t>(args_.size()));
  }
  /// Pushes the image of `atom` under the binding frame `frame`.
  void Push(const QAtom& atom, std::span<const ElemId> frame) {
    preds_.push_back(atom.pred);
    for (VarId v : atom.args) args_.push_back(frame[v]);
    ends_.push_back(static_cast<uint32_t>(args_.size()));
  }
  size_t size() const { return preds_.size(); }
  FactView operator[](size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return {preds_[i], std::span<const ElemId>(args_.data() + begin,
                                               ends_[i] - begin)};
  }
  /// Keeps the first `n` facts.
  void Truncate(size_t n) {
    preds_.resize(n);
    ends_.resize(n);
    args_.resize(n == 0 ? 0 : ends_[n - 1]);
  }

 private:
  std::vector<PredId> preds_;
  std::vector<uint32_t> ends_;
  std::vector<ElemId> args_;
};

MaintainResult CompiledProgram::Maintain(Instance& inst, const Instance& base,
                                         const FactDelta& delta,
                                         EvalStats* stats) const {
  auto t_start = std::chrono::steady_clock::now();
  inst.EnsureElements(base.num_elements());
  MaintainResult res;
  EvalStats run;  // the B/F counters and the join work, summed
  // Every fact the write takes out of the fixpoint, for the net changes:
  // the EDB deletes in batch order, then each stratum's disproved facts in
  // sorted fact order.
  Instance removed(inst.vocab());
  removed.EnsureElements(inst.num_elements());

  // Each stratum's candidates, the facts that may have lost a derivation,
  // seeded from each fact before it goes, while every other fact of an old
  // derivation through it is still in the instance: first the
  // base-deleted IDB facts, then the heads of the derivations through
  // each EDB delete, found while all of them are still there.
  std::vector<FactList> candidates(strata_.size());
  for (const Fact& f : delta.deletes) {
    if (program_.IsIdb(f.pred)) {
      candidates[stratum_of_.at(f.pred)].Push(f.pred, f.args);
    }
  }
  for (const Fact& f : delta.deletes) {
    if (!program_.IsIdb(f.pred)) {
      SeedCandidates(0, FactView{f.pred, f.args}, inst, candidates,
                     run.join_probes);
    }
  }

  // EDB membership *is* base membership: the deletes go, then the inserts
  // are appended, so each EDB predicate's new rows are its last.
  for (const Fact& f : delta.deletes) {
    if (program_.IsIdb(f.pred)) continue;
    MONDET_CHECK(inst.RemoveFact(f) && "Maintain: unnormalized delete");
    removed.AddFact(f);
  }
  std::vector<uint32_t> first_row(inst.vocab()->size());
  for (PredId p = 0; p < first_row.size(); ++p) first_row[p] = inst.NumRows(p);
  for (const Fact& f : delta.inserts) {
    if (program_.IsIdb(f.pred)) continue;
    MONDET_CHECK(inst.AddFact(f) && "Maintain: unnormalized insert");
    res.inserts.push_back(f);
  }

  // Delete: B/F on every stratum with a candidate; a write far from a
  // stratum never runs its joins. B/F only removes, so afterwards every
  // derivation over the rows left has its head in the instance: a
  // disproved fact has none over the facts not disproved and the lower
  // state B/F read, and a fact the old fixpoint lacked has none over old
  // facts.
  for (size_t si = 0; si < strata_.size(); ++si) {
    if (candidates[si].size() > 0) {
      MaintainBF(si, base, candidates, inst, removed, run);
    }
  }

  // Insert: append the IDB base inserts and continue the fixpoint from
  // each predicate's new rows, the EDB inserts and these, in the stratum
  // loop Eval runs. It puts back a disproved fact whose only proofs run
  // through a fact the write created.
  for (const Stratum& st : strata_) {
    for (PredId p : st.preds) first_row[p] = inst.NumRows(p);
  }
  size_t new_facts = res.inserts.size();
  for (const Fact& f : delta.inserts) {
    if (program_.IsIdb(f.pred) && inst.AddFact(f)) ++new_facts;
  }
  EvalStats cont;
  RunStrata(inst, first_row, new_facts, EvalOptions{}, t_start, &cont);
  run.join_probes += cont.join_probes;

  // Net changes: the removed facts not back (old ∖ new), then the new
  // IDB facts not removed (new ∖ old), per stratum in sorted fact order,
  // after the EDB inserts.
  for (uint32_t g = 0; g < removed.num_facts(); ++g) {
    const FactView f = removed.ViewAt(g);
    if (inst.HasFact(f.pred, f.args)) {
      ++res.rederived;
    } else {
      res.deletes.push_back(f.ToFact());
    }
  }
  std::vector<FactView> fresh;
  for (const Stratum& st : strata_) {
    fresh.clear();
    for (PredId p : st.preds) {
      for (uint32_t row = first_row[p]; row < inst.NumRows(p); ++row) {
        const FactView f{p, inst.Args(p, row)};
        if (!removed.HasFact(f.pred, f.args)) fresh.push_back(f);
      }
    }
    std::sort(fresh.begin(), fresh.end(), ViewLess);
    for (const FactView& f : fresh) res.inserts.push_back(f.ToFact());
  }
  res.overdeleted = run.overdeleted;

  if (stats) {
    run.iterations = 1;
    run.facts_derived = res.inserts.size();
    run.facts_retracted = res.deletes.size();
    run.rederived = res.rederived;
    run.wall_seconds = SecondsSince(t_start);
    stats->Accumulate(run);
  }
  return res;
}

void CompiledProgram::SeedCandidates(size_t from, const FactView& fact,
                                     const Instance& inst,
                                     std::vector<FactList>& candidates,
                                     size_t& probes) const {
  for (size_t si = from; si < strata_.size(); ++si) {
    FactList& queue = candidates[si];
    for (uint32_t pi : strata_[si].rules) {
      const RulePlan& plan = plans_[pi];
      auto derive = [&](std::span<const ElemId> frame) {
        // Derivations of one seed that differ only in variables the head
        // drops (a fan-in) tend to come back to back: a head equal to the
        // one queued before it is dropped again. The memo skips any other
        // repeat at its visit.
        queue.Push(plan.head, frame);
        const size_t n = queue.size();
        if (n > 1 && queue[n - 1] == queue[n - 2]) queue.Truncate(n - 1);
        return true;
      };
      for (size_t i = 0; i < plan.body.size(); ++i) {
        if (plan.body[i].pred != fact.pred) continue;
        MatchKernel(*AtomSeatKernel(plan, static_cast<int>(i)), inst,
                    fact.args, &probes, derive);
      }
    }
  }
}

void CompiledProgram::MaintainBF(size_t si, const Instance& base,
                                 std::vector<FactList>& candidates,
                                 Instance& inst, Instance& removed,
                                 EvalStats& run) const {
  // The search reads the instance: the new EDB, the lower strata after
  // their deletions (their new facts come with the continuation) and the
  // stratum's facts, of which it ignores those it has disproved.
  const Stratum& st = strata_[si];
  std::vector<ElemId> head, atom_args, seed;

  // The memo: every stratum fact the backward search visited, and its
  // state, one byte per memo id. The memo never removes a fact, so a
  // global id found once stays the fact's.
  constexpr uint8_t kUnvisited = 0, kChecked = 1, kProved = 2, kDisproved = 3;
  Instance memo(inst.vocab());
  memo.EnsureElements(inst.num_elements());
  std::vector<uint8_t> state;  // memo id -> state
  // The memo state of pred(args), found by one probe.
  auto state_at = [&](PredId pred, std::span<const ElemId> args) -> uint8_t {
    const uint32_t g = memo.FindFact(pred, args);
    return g == Instance::kNoFact ? kUnvisited : state[g];
  };
  // The memo state of `atom`'s image under `frame`; the image is left in
  // atom_args.
  auto state_of = [&](const QAtom& atom, std::span<const ElemId> frame) {
    WriteImage(atom, frame, atom_args);
    return state_at(atom.pred, atom_args);
  };

  // Proves the checked fact at memo id `g` and forward-chains: every
  // checked, unproved head of a derivation whose stratum atoms are all
  // proved (its lower atoms read the instance) is proved too,
  // transitively. A worklist, not recursion.
  FactList proved;
  auto prove = [&](uint32_t g) {
    state[g] = kProved;
    const FactView fact = memo.ViewAt(g);
    proved.Push(fact.pred, fact.args);
    while (proved.size() > 0) {
      const FactView f = proved[proved.size() - 1];
      const PredId pred = f.pred;
      seed.assign(f.args.begin(), f.args.end());
      proved.Truncate(proved.size() - 1);
      for (size_t k = 0; k < st.rules.size(); ++k) {
        const RulePlan& plan = plans_[st.rules[k]];
        for (int r : plan.recursive_atoms) {
          if (plan.body[r].pred != pred) continue;
          auto chain = [&](std::span<const ElemId> frame) {
            for (int j : plan.recursive_atoms) {
              if (j != r && state_of(plan.body[j], frame) != kProved) {
                return true;
              }
            }
            WriteImage(plan.head, frame, head);
            const uint32_t h = memo.FindFact(plan.head.pred, head);
            if (h != Instance::kNoFact && state[h] == kChecked) {
              state[h] = kProved;
              proved.Push(plan.head.pred, head);
            }
            return true;
          };
          MatchKernel(*AtomSeatKernel(plan, r), inst, seed, &run.join_probes,
                      chain);
        }
      }
    }
  };

  // The backward search's explicit stack. A frame is a checked fact and
  // the unvisited stratum atoms of its derivations, pending[first, end),
  // still to check from `next` on.
  struct Frame {
    uint32_t fact;  // memo id
    uint32_t first, next, end;
  };
  std::vector<Frame> stack;
  FactList pending;
  // MONDET_FAULT=skip-stratum-proof makes the backward search accept no
  // derivation that uses a fact of the stratum, so facts whose every
  // proof runs through the stratum are disproved and lost — the
  // maintenance-differential oracle must catch it.
  const bool skip_stratum_proof = FaultInjected("skip-stratum-proof");
  // Visits pred(args) if it is new to the memo: marks it checked (one
  // probe answers "visited?" and marks), then proves it at once if the
  // new base holds it or some derivation over the lower state and the
  // facts not disproved has every stratum atom proved — a derivation
  // whose support an earlier Check proved is seen only here. Otherwise
  // pushes a frame over the unvisited stratum atoms of those derivations.
  auto visit = [&](PredId pred, std::span<const ElemId> args) {
    if (!memo.AddFact(pred, args)) return;
    state.push_back(kChecked);
    const uint32_t g = static_cast<uint32_t>(memo.num_facts() - 1);
    const FactView f = memo.ViewAt(g);  // stable: the memo only reads now
    const uint32_t first = static_cast<uint32_t>(pending.size());
    bool at_once = base.HasFact(f.pred, f.args);
    for (size_t k = 0; k < st.rules.size() && !at_once; ++k) {
      const RulePlan& plan = plans_[st.rules[k]];
      if (plan.head.pred != f.pred ||
          (skip_stratum_proof && !plan.recursive_atoms.empty())) {
        continue;
      }
      // Stops at the first derivation whose stratum atoms are all proved.
      auto derivation = [&](std::span<const ElemId> frame) {
        bool all_proved = true;
        for (int r : plan.recursive_atoms) {
          const uint8_t s = state_of(plan.body[r], frame);
          if (s == kDisproved) return true;
          all_proved = all_proved && s == kProved;
        }
        if (all_proved) return false;
        for (int r : plan.recursive_atoms) {
          if (state_of(plan.body[r], frame) == kUnvisited) {
            pending.Push(plan.body[r].pred, atom_args);
          }
        }
        return true;
      };
      at_once = !MatchKernel(*AtomSeatKernel(plan, -1), inst, f.args,
                             &run.join_probes, derivation);
    }
    if (at_once) {
      pending.Truncate(first);
      prove(g);
    } else {
      stack.push_back({g, first, first, static_cast<uint32_t>(pending.size())});
    }
  };

  // Check each candidate still in the instance and not yet visited: a
  // depth-first backward search that checks the stratum atoms of each
  // derivation in turn and leaves a fact once it is proved. When it
  // returns, every fact it checked and did not prove has no proof over
  // the lower state and the facts not disproved: it is disproved, and,
  // while it is still in the instance, seeds the heads of the derivations
  // through it as candidates of this stratum and the ones above.
  FactList& queue = candidates[si];
  for (size_t c = 0; c < queue.size(); ++c) {
    const FactView cand = queue[c];
    if (!inst.HasFact(cand.pred, cand.args)) continue;
    const uint32_t first = static_cast<uint32_t>(memo.num_facts());
    visit(cand.pred, cand.args);
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (state[top.fact] == kProved || top.next == top.end) {
        pending.Truncate(top.first);
        stack.pop_back();
        continue;
      }
      const FactView g = pending[top.next++];
      visit(g.pred, g.args);
    }
    for (uint32_t g = first; g < memo.num_facts(); ++g) {
      if (state[g] != kChecked) continue;
      state[g] = kDisproved;
      SeedCandidates(si, memo.ViewAt(g), inst, candidates, run.join_probes);
    }
  }

  // Remove the disproved facts and append them to `removed`, in sorted
  // fact order.
  std::vector<FactView> gone;
  for (uint32_t g = 0; g < memo.num_facts(); ++g) {
    if (state[g] == kDisproved) gone.push_back(memo.ViewAt(g));
  }
  std::sort(gone.begin(), gone.end(), ViewLess);
  for (const FactView& f : gone) {
    MONDET_CHECK(inst.RemoveFact(f.pred, f.args));
    removed.AddFact(f.pred, f.args);
  }
  run.overdeleted += gone.size();
}

}  // namespace mondet
