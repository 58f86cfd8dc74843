// Workload "fixpoint": a seeded mix of one-shot CompiledProgram::Eval calls
// at the library's default options, programs compiled in set-up. Four
// families: the Fig 4 inverse-rules rewriting over DiamondChain(n) view
// images (n = 32, 64, ..., 256), transitive closure over eight random
// graphs of 200-400 nodes, Thm 9 separator runs (EncodeRun, input length
// 1-4) and 80 random PlanProfile programs over 60-100 elements with ten
// facts per element. Sizes are fixed; the seed draws the graphs, programs
// and instances. Every eight operations take Fig 4 three times, random
// programs and Thm 9 twice each and closure once, so that neither the
// median nor the 90th percentile falls between the cheap families (random,
// closure) and the dear ones (Fig 4, Thm 9). One operation = one Eval.
//
// References: transitive closure against a breadth-first closure computed
// here; every other input against NaiveFpEval when its Eval made at most
// kNaiveMaxProbes join probes (NaiveFpEval re-derives every fact each
// round and buffers every derivation, which runs to gigabytes on the
// densest random programs). Fig 4 and Thm 9 goals must hold, and every
// result must repeat the first result on its input.

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/stats.h"
#include "datalog/eval_plan.h"
#include "datalog/parser.h"
#include "harness.h"
#include "reductions/thm7.h"
#include "reductions/thm9.h"
#include "testing/generator.h"
#include "testing/reference.h"
#include "views/inverse_rules.h"

namespace perfbench {
namespace {

using namespace mondet;

struct FixInput {
  std::string label;
  const Program* program;
  const CompiledProgram* compiled;
  Instance input;
  PredId must_hold = kNoPred;  // a goal known to be non-empty, or kNoPred
  std::optional<Fingerprint> reference;  // the independent reference
  std::optional<Fingerprint> first;      // the first result seen
};

struct FixPool {
  std::deque<Program> programs;
  std::deque<CompiledProgram> compiled;
  std::vector<std::vector<FixInput>> families;  // fig4, tc, thm9, random
  std::vector<double> compile_ms;
  PredId tc_edge = kNoPred, tc_pred = kNoPred;
};

const CompiledProgram* Compile(FixPool* pool, Program program) {
  pool->programs.push_back(std::move(program));
  const Clock::time_point t0 = Clock::now();
  pool->compiled.emplace_back(pool->programs.back());
  pool->compile_ms.push_back(MsSince(t0));
  return &pool->compiled.back();
}

/// Number of connected components of a rule body (atoms linked by shared
/// variables). Random programs keep only connected bodies: a body of two
/// or more components is a cross product whose derivation count explodes
/// on dense relations (see README.md).
int BodyComponents(const Rule& rule) {
  std::vector<int> parent(rule.body.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<int> owner(rule.num_vars(), -1);
  for (size_t a = 0; a < rule.body.size(); ++a) {
    for (VarId v : rule.body[a].args) {
      if (owner[v] < 0) {
        owner[v] = static_cast<int>(a);
      } else {
        parent[find(static_cast<int>(a))] = find(owner[v]);
      }
    }
  }
  int components = 0;
  for (size_t a = 0; a < rule.body.size(); ++a) {
    if (find(static_cast<int>(a)) == static_cast<int>(a)) ++components;
  }
  return components;
}

/// Inputs whose Eval needs more join probes are not re-evaluated naively.
constexpr size_t kNaiveMaxProbes = 200000;

/// The family of each operation in a cycle of eight: 0 Fig 4, 1 closure,
/// 2 Thm 9, 3 random programs.
constexpr int kSchedule[8] = {0, 3, 2, 0, 1, 0, 3, 2};

int Uniform(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

FixPool BuildPool(const Options& o, std::mt19937_64& rng) {
  FixPool pool;
  pool.families.resize(4);

  // Fig 4: the inverse-rules rewriting over DiamondChain(n) images.
  const Thm7Gadget g7 = BuildThm7();
  DatalogQuery rewriting = InverseRulesRewriting(g7.query, g7.views);
  const PredId fig4_goal = rewriting.goal;
  const CompiledProgram* fig4 = Compile(&pool, rewriting.program);
  for (int k = 0; k < (o.smoke ? 2 : 8); ++k) {
    const int n = o.smoke ? 2 + 2 * k : 32 * (k + 1);
    pool.families[0].push_back(FixInput{"fig4/" + std::to_string(n),
                                        &pool.programs.back(), fig4,
                                        g7.views.Image(g7.DiamondChain(n)),
                                        fig4_goal, std::nullopt, std::nullopt});
  }

  // Transitive closure over random graphs of 200-400 nodes, out-degree 0.8
  // on average (below the giant-component threshold, so closure sizes stay
  // close to their mean).
  auto vocab = MakeVocabulary();
  std::optional<Program> tc = ParseProgram(
      "TC(x,y) :- E(x,y).\nTC(x,z) :- E(x,y), TC(y,z).", vocab).program;
  if (!tc) throw std::runtime_error("transitive closure does not parse");
  pool.tc_edge = *vocab->FindPredicate("E");
  pool.tc_pred = *vocab->FindPredicate("TC");
  const CompiledProgram* tcc = Compile(&pool, *tc);
  for (int k = 0; k < (o.smoke ? 2 : 8); ++k) {
    const int nodes = o.smoke ? 12 : 200 + 200 * k / 7;
    Instance g(vocab);
    g.EnsureElements(static_cast<size_t>(nodes));
    while (g.num_facts() < static_cast<size_t>(nodes) * 4 / 5) {
      const ElemId a = static_cast<ElemId>(Uniform(rng, 0, nodes - 1));
      const ElemId b = static_cast<ElemId>(Uniform(rng, 0, nodes - 1));
      g.AddFact(pool.tc_edge, {a, b});
    }
    pool.families[1].push_back(FixInput{"tc/" + std::to_string(nodes),
                                        &pool.programs.back(), tcc,
                                        std::move(g), kNoPred, std::nullopt,
                                        std::nullopt});
  }

  // Thm 9: the separator re-simulates the eraser machine on 1^n.
  const Thm9Gadget g9 = BuildThm9(EraserMachine());
  const CompiledProgram* thm9 = Compile(&pool, g9.query.program);
  for (int n = 1; n <= (o.smoke ? 2 : 4); ++n) {
    pool.families[2].push_back(
        FixInput{"thm9/" + std::to_string(n), &pool.programs.back(), thm9,
                 g9.EncodeRun(std::vector<int>(n, 1), 100000), g9.query.goal,
                 std::nullopt, std::nullopt});
  }

  // Random PlanProfile programs with connected rule bodies (program seed
  // 17000+s, instance seed 19000+s, as the plan-differential oracle draws
  // them).
  testing::GenProfile plan = testing::PlanProfile();
  for (int k = 0; k < (o.smoke ? 2 : 80); ++k) {
    unsigned s = 0;
    Program p(plan.vocab);
    for (;;) {
      s = static_cast<unsigned>(rng() % 1000000);
      p = testing::RandomProgram(plan, 17000 + s);
      bool ok = true;
      for (const Rule& rule : p.rules()) ok = ok && BodyComponents(rule) <= 1;
      if (ok) break;
    }
    const int elems = o.smoke ? 8 : 60 + 10 * (k % 5);
    Instance inst = testing::RandomInstance(
        plan.vocab, testing::SeededPreds(plan, s), elems, 10 * elems,
        19000 + s);
    const CompiledProgram* c = Compile(&pool, std::move(p));
    pool.families[3].push_back(FixInput{
        "random/" + std::to_string(s) + "/" + std::to_string(elems),
        &pool.programs.back(), c, std::move(inst), kNoPred, std::nullopt,
        std::nullopt});
  }
  return pool;
}

/// Breadth-first transitive closure: the input edges plus TC(x,y) for every
/// y reachable from x in one or more steps.
Fingerprint ClosureReference(const Instance& g, PredId edge, PredId tc) {
  const size_t n = g.num_elements();
  std::vector<std::vector<ElemId>> out(n);
  Fingerprint fp;
  for (uint32_t i = 0; i < g.num_facts(); ++i) {
    const FactView f = g.ViewAt(i);
    fp.Add(f.pred, f.args);
    if (f.pred == edge) out[f.args[0]].push_back(f.args[1]);
  }
  std::vector<char> seen(n);
  std::vector<ElemId> queue;
  for (ElemId x = 0; x < n; ++x) {
    std::fill(seen.begin(), seen.end(), 0);
    queue.clear();
    for (ElemId y : out[x]) {
      if (!seen[y]) {
        seen[y] = 1;
        queue.push_back(y);
      }
    }
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      for (ElemId z : out[queue[qi]]) {
        if (!seen[z]) {
          seen[z] = 1;
          queue.push_back(z);
        }
      }
    }
    for (ElemId y : queue) {
      const ElemId args[2] = {x, y};
      fp.Add(tc, args);
    }
  }
  return fp;
}

}  // namespace

void RunFixpoint(const Options& o, Tracer& tr, Result* r) {
  std::mt19937_64 rng(o.seed);
  FixPool pool;
  while (r->MoreSetUps()) {
    rng.seed(o.seed);
    pool = FixPool();  // the last set-up's teardown is not timed
    const Clock::time_point t0 = Clock::now();
    pool = BuildPool(o, rng);
    r->AddSetUp(MsSince(t0));
  }
  std::vector<Cycle> cycles;
  for (const auto& fam : pool.families) cycles.emplace_back(fam.size(), rng);
  // Eight schedules: whole rounds of the Fig 4, Thm 9 and closure inputs.
  r->window = 64;

  EvalStats total;
  size_t evals = 0;
  double max_stratum_ms = 0;
  TraceSplit split;

  Loop loop(o, r);
  while (loop.More()) {
    const uint64_t i = loop.ops();
    const size_t fam = kSchedule[i % 8];
    FixInput& in = pool.families[fam][cycles[fam].Next()];
    // Traced and untraced runs of the whole eight-operation schedule
    // alternate, so both halves see the same family mix.
    const bool traced = o.trace && (i / 8) % 2 == 0;
    tr.set_active(traced);
    tr.set_op(i, in.label);
    if (traced) {
      // The statistics collection a live-planned Eval starts with, timed
      // apart from the Eval that repeats it.
      loop.Busy([&] {
        Tracer::Scope s(tr, "base.stats.collect");
        Stats::Collect(in.input);
      });
    }
    EvalStats stats;
    std::optional<Instance> out;
    double ms = 0;
    {
      Tracer::Scope s(tr, "datalog.eval");
      const double c0 = o.trace ? CpuSeconds() : 0;
      ms = loop.Time([&] { out.emplace(in.compiled->Eval(in.input, &stats)); });
      if (o.trace) split.Add(traced, ms, CpuSeconds() - c0);
    }
    r->Work(static_cast<double>(stats.facts_derived), ms);
    if (o.trace) {
      ++evals;
      double worst = 0;
      for (const StratumStats& ss : stats.strata) {
        worst = std::max(worst, ss.wall_seconds * 1000);
      }
      max_stratum_ms += worst;
      stats.strata.clear();  // only the totals are kept
      total.Accumulate(stats);
    }

    std::optional<std::string> err;
    loop.Verify([&] {
      const Fingerprint got = FingerprintOf(*out);
      if (in.must_hold != kNoPred && out->NumRows(in.must_hold) == 0) {
        err = in.label + ": goal does not hold";
        return;
      }
      if (in.first && !(*in.first == got)) {
        err = in.label + ": result differs from an earlier Eval";
        return;
      }
      in.first = got;
      if (!in.reference) {
        if (fam == 1) {
          in.reference = ClosureReference(in.input, pool.tc_edge, pool.tc_pred);
        } else if (stats.join_probes <= kNaiveMaxProbes) {
          in.reference = FingerprintOf(NaiveFpEval(*in.program, in.input));
        }
        if (in.reference && !(*in.reference == got)) {
          err = in.label + ": result differs from the reference (" +
                std::to_string(got.facts) + " vs " +
                std::to_string(in.reference->facts) + " facts)";
        }
      }
    });
    if (err) r->Fail(*err);
  }
  tr.set_active(true);

  if (o.trace) {
    const double n = std::max<double>(1, evals);
    double compile_ms = 0;
    for (double c : pool.compile_ms) compile_ms += c;
    auto& L = r->layers;
    L["datalog.compile_ms"] =
        compile_ms / std::max<double>(1, pool.compile_ms.size());
    L["base.stats.collect_ms"] = tr.MeanMs("base.stats.collect");
    L["datalog.eval.rounds"] = total.iterations / n;
    L["datalog.eval.facts_derived"] = total.facts_derived / n;
    L["datalog.eval.join_probes"] = total.join_probes / n;
    L["datalog.eval.facts_per_probe"] =
        total.join_probes > 0
            ? static_cast<double>(total.facts_derived) / total.join_probes
            : 0;
    L["datalog.eval.replans"] = total.replans / n;
    L["datalog.eval.stats_facts_counted"] = total.stats_facts_counted / n;
    L["datalog.eval.rules_pruned"] = total.rules_pruned / n;
    L["datalog.eval.max_stratum_ms"] = max_stratum_ms / n;
    split.Report(&L);
  }
}

}  // namespace perfbench
