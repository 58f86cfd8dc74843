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
  if (plan.atom_seats.empty()) plan.atom_seats.resize(plan.body.size());
  std::optional<JoinKernel>& kernel = plan.atom_seats[atom];
  if (!kernel) {
    kernel = BuildKernel(
        plan.head, plan.body, plan.num_vars, atom,
        PlanOrder(plan, MakeSeatShape(plan, atom), nullptr, nullptr));
  }
  return &*kernel;
}

const std::vector<uint32_t>& CompiledProgram::MatchOrder(const RulePlan& plan,
                                                         int seat) const {
  if (plan.match_orders.empty()) {
    SeatShape check = MakeSeatShape(plan, -1);
    for (VarId v : plan.head.args) check.bound0[v] = true;
    plan.match_orders.push_back(PlanOrder(plan, check, nullptr, nullptr));
    for (int i = 0; i < static_cast<int>(plan.body.size()); ++i) {
      plan.match_orders.push_back(
          PlanOrder(plan, MakeSeatShape(plan, i), nullptr, nullptr));
    }
  }
  return plan.match_orders[1 + seat];
}

Instance CompiledProgram::Eval(const Instance& input, EvalStats* stats,
                               const EvalOptions& options) const {
  auto t_start = std::chrono::steady_clock::now();
  Instance result = input;
  RunStrata(result, 0, options, t_start, stats);
  return result;
}

void CompiledProgram::EvalFrom(Instance& inst, uint32_t first_new,
                               EvalStats* stats) const {
  RunStrata(inst, first_new, EvalOptions{}, std::chrono::steady_clock::now(),
            stats);
}

void CompiledProgram::RunStrata(Instance& result, uint32_t first_new,
                                const EvalOptions& options,
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
      options.stats != nullptr ||
      result.num_facts() - first_new >= options.stats_min_facts;
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
      const int seat_atom = s == 0 ? -1 : plan.recursive_atoms[s - 1];
      plan.kernels.push_back({sp.order, BuildKernel(plan.head, plan.body,
                                                    plan.num_vars, seat_atom,
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
    // a derivation the fixpoint below `first_new` lacks uses some new
    // fact, so every body atom with new rows seeds from them, at its
    // delta seat if recursive and at its atom seat otherwise.
    // MONDET_FAULT=skip-continuation-seat never seeds the atom seats, so
    // derivations through new EDB or lower-stratum facts are lost — the
    // eval-differential oracle's continuation arm must catch it.
    std::vector<WorkItem> round0;
    round0.reserve(stratum.rules.size());
    for (size_t k = 0; k < stratum.rules.size(); ++k) {
      if (first_new == 0) {
        round0.push_back({kernel_for(k, 0)});
        continue;
      }
      const RulePlan& plan = plans_[stratum.rules[k]];
      const std::vector<int>& rec = plan.recursive_atoms;  // in body order
      size_t r = 0;
      for (int i = 0; i < static_cast<int>(plan.body.size()); ++i) {
        const bool recursive = r < rec.size() && rec[r] == i;
        const PredId p = plan.body[i].pred;
        const uint32_t first = FirstRowFrom(result, p, first_new);
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

/// Binds the variables of `atom` to the argument tuple `args`. Returns
/// false on a clash (a repeated variable or a pre-bound one disagreeing
/// with `args`); the caller resets `map` either way.
bool BindArgs(const QAtom& atom, std::span<const ElemId> args,
              std::vector<ElemId>& map) {
  for (size_t pos = 0; pos < atom.args.size(); ++pos) {
    ElemId& img = map[atom.args[pos]];
    if (img == kNoElem) {
      img = args[pos];
    } else if (img != args[pos]) {
      return false;
    }
  }
  return true;
}

/// The image of `atom` under `map`, written into `out`.
void WriteImage(const QAtom& atom, const std::vector<ElemId>& map,
                std::vector<ElemId>& out) {
  out.resize(atom.args.size());
  for (size_t pos = 0; pos < out.size(); ++pos) out[pos] = map[atom.args[pos]];
}

/// Lexicographic (pred, args) order, as Fact::operator<.
bool ViewLess(const FactView& a, const FactView& b) {
  if (a.pred != b.pred) return a.pred < b.pred;
  return std::lexicographical_compare(a.args.begin(), a.args.end(),
                                      b.args.begin(), b.args.end());
}

/// Facts back to back in one argument arena: a queue or a stack of facts
/// that allocates nothing per fact once warm. A view is valid until the
/// next Push.
class FactList {
 public:
  void Push(PredId pred, std::span<const ElemId> args) {
    preds_.push_back(pred);
    args_.insert(args_.end(), args.begin(), args.end());
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

/// Calls `f(args)` for every row of `pred` in `inst`, in row order.
template <class F>
void ForEachRow(const Instance& inst, PredId pred, F&& f) {
  const uint32_t n = inst.NumRows(pred);
  for (uint32_t row = 0; row < n; ++row) f(inst.Args(pred, row));
}

/// `n` values of scratch: on the stack up to kInline, on the heap beyond
/// (the parser accepts atoms of any arity).
template <class T>
class Scratch {
 public:
  explicit Scratch(size_t n) {
    if (n > kInline) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  T* data() { return data_; }
  T& operator[](size_t i) { return data_[i]; }

 private:
  static constexpr size_t kInline = 16;
  T local_[kInline] = {};
  std::vector<T> heap_;
  T* data_ = local_;
};

}  // namespace

template <class Out>
bool CompiledProgram::MatchAtoms(const RulePlan& plan,
                                 std::span<const uint32_t> order, size_t k,
                                 const std::vector<uint8_t>& read_old,
                                 const Instance& inst, const ChangeLog& log,
                                 size_t& probes, std::vector<ElemId>& map,
                                 Out&& out) const {
  if (k == order.size()) return out(map);
  const QAtom& atom = plan.body[order[k]];
  const size_t arity = atom.args.size();
  const bool old = read_old[order[k]] && log.Touched(atom.pred);
  Scratch<ElemId> image(arity);  // the atom under `map`; kNoElem if unbound
  bool fully_bound = true;
  for (size_t pos = 0; pos < arity; ++pos) {
    image[pos] = map[atom.args[pos]];
    fully_bound = fully_bound && image[pos] != kNoElem;
  }
  // A fully bound atom over the current state matches at most one row
  // (set semantics), so one membership probe replaces the bucket scan
  // and enumerates the same. An old-state read keeps the scan below: it
  // must skip the batch's insertions and replay its deletions.
  if (fully_bound && !old) {
    ++probes;
    return !inst.HasFact(atom.pred,
                         std::span<const ElemId>(image.data(), arity)) ||
           MatchAtoms(plan, order, k + 1, read_old, inst, log, probes, map,
                      out);
  }
  // Current-state candidates through the tightest index available for the
  // bound positions; an old-state read additionally skips
  // facts inserted since the old snapshot and replays the deleted ones.
  std::span<const uint32_t> candidates;
  int anchor = -1;
  for (int pos = 0; pos < static_cast<int>(arity); ++pos) {
    const ElemId img = image[pos];
    if (img == kNoElem) continue;
    const std::span<const uint32_t> idx = inst.RowsWith(atom.pred, pos, img);
    if (anchor < 0 || idx.size() < candidates.size()) {
      candidates = idx;
      anchor = pos;
    }
  }
  Scratch<VarId> bound(arity);  // the variables one candidate binds
  // Binds the atom to `args` and matches the rest; returns false when
  // the enumeration must stop (out() vetoed).
  auto try_args = [&](std::span<const ElemId> args) {
    size_t nb = 0;
    bool match = true;
    for (size_t pos = 0; pos < arity && match; ++pos) {
      const VarId v = atom.args[pos];
      if (map[v] == kNoElem) {
        map[v] = args[pos];
        bound[nb++] = v;
      } else {
        match = map[v] == args[pos];
      }
    }
    const bool go_on = !match || MatchAtoms(plan, order, k + 1, read_old,
                                            inst, log, probes, map, out);
    for (size_t i = 0; i < nb; ++i) map[bound[i]] = kNoElem;
    return go_on;
  };
  auto try_row = [&](uint32_t row) {
    ++probes;
    const std::span<const ElemId> targs = inst.Args(atom.pred, row);
    return (old && log.added.HasFact(atom.pred, targs)) || try_args(targs);
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
  if (old) {
    const uint32_t n = log.removed.NumRows(atom.pred);
    for (uint32_t row = 0; row < n; ++row) {
      ++probes;
      if (!try_args(log.removed.Args(atom.pred, row))) return false;
    }
  }
  return true;
}

MaintainResult CompiledProgram::Maintain(Instance& inst, const Instance& base,
                                         const FactDelta& delta,
                                         EvalStats* stats) const {
  auto t_start = std::chrono::steady_clock::now();
  inst.EnsureElements(base.num_elements());
  MaintainResult res;
  ChangeLog log(inst);
  EvalStats run;  // the B/F counters and the join work, summed

  // Split the base delta by layer: EDB changes apply directly (EDB
  // membership *is* base membership), IDB base changes fold into their
  // own stratum's pass as candidates or insertion seeds.
  std::vector<std::vector<const Fact*>> base_ins_at(strata_.size());
  std::vector<std::vector<const Fact*>> base_del_at(strata_.size());
  for (const Fact& f : delta.inserts) {
    if (program_.IsIdb(f.pred)) {
      base_ins_at[stratum_of_.at(f.pred)].push_back(&f);
    } else {
      MONDET_CHECK(inst.AddFact(f) && "Maintain: unnormalized insert");
      log.added.AddFact(f);
    }
  }
  for (const Fact& f : delta.deletes) {
    if (program_.IsIdb(f.pred)) {
      base_del_at[stratum_of_.at(f.pred)].push_back(&f);
    } else {
      MONDET_CHECK(inst.RemoveFact(f) && "Maintain: unnormalized delete");
      log.removed.AddFact(f);
    }
  }

  for (size_t si = 0; si < strata_.size(); ++si) {
    const Stratum& st = strata_[si];
    // Skip untouched strata: no base changes here and no membership
    // change on any body predicate. This skip is what makes small deltas
    // cheap — churn far from a stratum never re-runs its joins.
    bool touched = !base_ins_at[si].empty() || !base_del_at[si].empty();
    for (uint32_t pi : st.rules) {
      if (touched) break;
      for (const QAtom& a : plans_[pi].body) {
        if (log.Touched(a.pred)) {
          touched = true;
          break;
        }
      }
    }
    if (!touched) continue;
    MaintainBF(si, base, base_ins_at[si], base_del_at[si], inst, log, run);
  }
  // The log never loses a fact, so global-id order is record order.
  res.inserts = log.added.AllFacts();
  res.deletes = log.removed.AllFacts();
  res.overdeleted = run.overdeleted;
  res.rederived = run.rederived;

  if (stats) {
    run.iterations = 1;
    run.facts_derived = res.inserts.size();
    run.facts_retracted = res.deletes.size();
    run.wall_seconds = SecondsSince(t_start);
    stats->Accumulate(run);
  }
  return res;
}

void CompiledProgram::MaintainBF(
    size_t si, const Instance& base, const std::vector<const Fact*>& base_ins,
    const std::vector<const Fact*>& base_del, Instance& inst, ChangeLog& log,
    EvalStats& run) const {
  const Stratum& st = strata_[si];
  // Per plan of the stratum, the atoms over lower strata: they read the
  // old state (current − added + removed) while seeding candidates.
  // `current` reads the current state everywhere: the new lower strata
  // and, until the disproved facts go, the old stratum relations.
  std::vector<std::vector<uint8_t>> lower_old(st.rules.size());
  size_t max_body = 0;
  for (size_t k = 0; k < st.rules.size(); ++k) {
    const RulePlan& plan = plans_[st.rules[k]];
    lower_old[k].assign(plan.body.size(), 1);
    for (int r : plan.recursive_atoms) lower_old[k][r] = 0;
    max_body = std::max(max_body, plan.body.size());
  }
  const std::vector<uint8_t> current(max_body, 0);
  std::vector<ElemId> map, head, atom_args, seed;

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
  // The memo state of `atom`'s image under `mm`; the image is left in
  // atom_args.
  auto state_of = [&](const QAtom& atom, const std::vector<ElemId>& mm) {
    WriteImage(atom, mm, atom_args);
    return state_at(atom.pred, atom_args);
  };

  // Candidates: the stratum facts that may have lost their last
  // derivation. Seeded from the base-deleted stratum facts and the heads
  // of old-state derivations through a lower-stratum removal, then
  // through every disproved fact. Lower atoms read the old state; stratum
  // atoms read the instance, which still holds the old stratum relations.
  FactList candidates;
  for (const Fact* f : base_del) candidates.Push(f->pred, f->args);
  auto seed_candidates = [&](size_t k, size_t i, std::span<const ElemId> df) {
    const RulePlan& plan = plans_[st.rules[k]];
    map.assign(plan.num_vars, kNoElem);
    if (!BindArgs(plan.body[i], df, map)) return;
    auto derive = [&](const std::vector<ElemId>& mm) {
      WriteImage(plan.head, mm, head);
      // Derivations of one seed that differ only in variables the head
      // drops (a fan-in) tend to come back to back: queue their head
      // once. Any other repeat is skipped by the memo at its visit.
      const size_t n = candidates.size();
      if (n == 0 || !(candidates[n - 1] == FactView{plan.head.pred, head})) {
        candidates.Push(plan.head.pred, head);
      }
      return true;
    };
    MatchAtoms(plan, MatchOrder(plan, static_cast<int>(i)), 0, lower_old[k],
               inst, log, run.join_probes, map, derive);
  };
  for (size_t k = 0; k < st.rules.size(); ++k) {
    const RulePlan& plan = plans_[st.rules[k]];
    for (size_t i = 0; i < plan.body.size(); ++i) {
      if (!lower_old[k][i]) continue;
      ForEachRow(log.removed, plan.body[i].pred,
                 [&](std::span<const ElemId> df) {
                   seed_candidates(k, i, df);
                 });
    }
  }

  // Proves the checked fact at memo id `g` and forward-chains: every
  // checked, unproved head of a derivation whose stratum atoms are all
  // proved (its lower atoms read the new state) is proved too,
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
          map.assign(plan.num_vars, kNoElem);
          if (!BindArgs(plan.body[r], seed, map)) continue;
          auto chain = [&](const std::vector<ElemId>& mm) {
            for (int j : plan.recursive_atoms) {
              if (j != r && state_of(plan.body[j], mm) != kProved) return true;
            }
            WriteImage(plan.head, mm, head);
            const uint32_t h = memo.FindFact(plan.head.pred, head);
            if (h != Instance::kNoFact && state[h] == kChecked) {
              state[h] = kProved;
              proved.Push(plan.head.pred, head);
            }
            return true;
          };
          MatchAtoms(plan, MatchOrder(plan, r), 0, current, inst, log,
                     run.join_probes, map, chain);
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
  // new base holds it or some derivation over the new lower state and the
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
      map.assign(plan.num_vars, kNoElem);
      if (!BindArgs(plan.head, f.args, map)) continue;
      auto derivation = [&](const std::vector<ElemId>& mm) {
        bool all_proved = true;
        for (int r : plan.recursive_atoms) {
          const uint8_t s = state_of(plan.body[r], mm);
          if (s == kDisproved) return true;
          all_proved = all_proved && s == kProved;
        }
        if (all_proved) return false;
        for (int r : plan.recursive_atoms) {
          if (state_of(plan.body[r], mm) == kUnvisited) {
            pending.Push(plan.body[r].pred, atom_args);
          }
        }
        return true;
      };
      at_once = !MatchAtoms(plan, MatchOrder(plan, -1), 0, current, inst,
                            log, run.join_probes, map, derivation);
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
  // the new lower state and the facts not disproved: it is disproved, and
  // the heads of old-state derivations through it become candidates.
  for (size_t c = 0; c < candidates.size(); ++c) {
    const FactView cand = candidates[c];
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
      const FactView f = memo.ViewAt(g);
      for (size_t k = 0; k < st.rules.size(); ++k) {
        const RulePlan& plan = plans_[st.rules[k]];
        for (int r : plan.recursive_atoms) {
          if (plan.body[r].pred != f.pred) continue;
          seed_candidates(k, static_cast<size_t>(r), f.args);
        }
      }
    }
  }

  // Remove the disproved facts, in memo order.
  for (uint32_t g = 0; g < memo.num_facts(); ++g) {
    if (state[g] != kDisproved) continue;
    const FactView f = memo.ViewAt(g);
    MONDET_CHECK(inst.RemoveFact(f.pred, f.args));
    ++run.overdeleted;
  }

  // Insert: semi-naive from the inserted seeds — base-inserted stratum
  // facts and lower-stratum membership insertions at every matching body
  // atom — joining the other atoms over the new state. Enumerating every
  // seed against the full new state may revisit a derivation; set
  // semantics absorbs that. This phase only adds, so the facts it adds
  // are the global ids from `first_new` on, in the order added.
  const uint32_t first_new = static_cast<uint32_t>(inst.num_facts());
  std::vector<ElemId> derived;  // one seed's head tuples, back to back
  auto seed_insertion = [&](size_t k, size_t i, std::span<const ElemId> df) {
    const RulePlan& plan = plans_[st.rules[k]];
    map.assign(plan.num_vars, kNoElem);
    if (!BindArgs(plan.body[i], df, map)) return;
    // Derivations are collected first and added after the enumeration:
    // AddFact mutates the very indexes MatchAtoms is iterating.
    derived.clear();
    size_t n = 0;
    auto derive = [&](const std::vector<ElemId>& mm) {
      for (VarId v : plan.head.args) derived.push_back(mm[v]);
      ++n;
      return true;
    };
    MatchAtoms(plan, MatchOrder(plan, static_cast<int>(i)), 0, current, inst,
               log, run.join_probes, map, derive);
    const size_t ar = plan.head.args.size();
    for (size_t j = 0; j < n; ++j) {
      inst.AddFact(plan.head.pred,
                   std::span<const ElemId>(derived.data() + j * ar, ar));
    }
  };
  for (const Fact* f : base_ins) inst.AddFact(*f);
  for (size_t k = 0; k < st.rules.size(); ++k) {
    const RulePlan& plan = plans_[st.rules[k]];
    for (size_t i = 0; i < plan.body.size(); ++i) {
      if (!lower_old[k][i]) continue;
      ForEachRow(log.added, plan.body[i].pred,
                 [&](std::span<const ElemId> df) { seed_insertion(k, i, df); });
    }
  }
  for (uint32_t g = first_new; g < inst.num_facts(); ++g) {  // the frontier
    const FactView f = inst.ViewAt(g);
    seed.assign(f.args.begin(), f.args.end());
    for (size_t k = 0; k < st.rules.size(); ++k) {
      const RulePlan& plan = plans_[st.rules[k]];
      for (int r : plan.recursive_atoms) {
        if (plan.body[r].pred != f.pred) continue;
        seed_insertion(k, static_cast<size_t>(r), seed);
      }
    }
  }

  // Net membership changes of this stratum: the disproved facts the
  // insert phase did not put back (old ∖ new), and the inserted facts the
  // memo never saw (new ∖ old: every old fact the insert phase could add
  // was disproved). Each list is logged in sorted fact order, so the
  // change lists — the lower-stratum deltas of later strata — are
  // deterministic.
  std::vector<FactView> gone, fresh;
  for (uint32_t g = 0; g < memo.num_facts(); ++g) {
    if (state[g] != kDisproved) continue;
    const FactView f = memo.ViewAt(g);
    if (inst.HasFact(f.pred, f.args)) {
      ++run.rederived;
    } else {
      gone.push_back(f);
    }
  }
  for (uint32_t g = first_new; g < inst.num_facts(); ++g) {
    const FactView f = inst.ViewAt(g);
    if (!memo.HasFact(f.pred, f.args)) fresh.push_back(f);
  }
  std::sort(gone.begin(), gone.end(), ViewLess);
  std::sort(fresh.begin(), fresh.end(), ViewLess);
  for (const FactView& f : gone) log.removed.AddFact(f.pred, f.args);
  for (const FactView& f : fresh) log.added.AddFact(f.pred, f.args);
}

}  // namespace mondet
