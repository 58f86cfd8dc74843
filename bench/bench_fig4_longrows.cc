// Figure 4: the long row of R-rectangles. Reproduces the crossover: the
// n-row pattern maps into the view image of an m-diamond chain iff
// m >= n+1, and never maps into a (1,k)-unravelled image.

#include <benchmark/benchmark.h>

#include "base/homomorphism.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "games/unravel.h"
#include "reductions/thm7.h"
#include "views/inverse_rules.h"

namespace mondet {
namespace {

void BM_Fig4_RowCrossover(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Thm7Gadget gadget = BuildThm7();
  Instance row = gadget.RRowPattern(n);
  Instance image_eq = gadget.views.Image(gadget.DiamondChain(n));
  Instance image_plus = gadget.views.Image(gadget.DiamondChain(n + 1));
  bool crossover = true;
  for (auto _ : state) {
    crossover = !HasHomomorphism(row, image_eq) &&
                HasHomomorphism(row, image_plus);
  }
  state.SetLabel(crossover
                     ? "row(n) maps into image(m) iff m >= n+1 (Figure 4)"
                     : "UNEXPECTED crossover");
}
BENCHMARK(BM_Fig4_RowCrossover)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The evaluator-bound half of the family: fixpoint of the inverse-rules
// rewriting over the view image of the n-diamond chain. This is the
// long-R-rows workload the compiled semi-naive evaluator targets; the
// counters expose its EvalStats.
void BM_Fig4_RowFamilyEval(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Thm7Gadget gadget = BuildThm7();
  DatalogQuery rewriting = InverseRulesRewriting(gadget.query, gadget.views);
  CompiledProgram compiled(rewriting.program);
  Instance image = gadget.views.Image(gadget.DiamondChain(n));
  EvalStats stats;
  bool holds = false;
  for (auto _ : state) {
    stats = EvalStats{};
    Instance fixpoint = compiled.Eval(image, &stats);
    holds = fixpoint.NumRows(rewriting.goal) > 0;
  }
  state.counters["image_facts"] = static_cast<double>(image.num_facts());
  state.counters["eval_iters"] = static_cast<double>(stats.iterations);
  state.counters["facts_derived"] = static_cast<double>(stats.facts_derived);
  state.counters["join_probes"] = static_cast<double>(stats.join_probes);
  state.counters["stats_counted"] =
      static_cast<double>(stats.stats_facts_counted);
  state.SetLabel(holds ? "rewriting holds on the row family (Figure 4)"
                       : "UNEXPECTED: rewriting failed");
}
BENCHMARK(BM_Fig4_RowFamilyEval)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Baseline for the statistics-driven planner: the same workload with the
// planner disabled (compile-time EDB-first orders). The delta between
// this and BM_Fig4_RowFamilyEval is the planner's win; join_probes makes
// the work difference visible even when wall time is noisy.
void BM_Fig4_RowFamilyEval_StaticPlan(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Thm7Gadget gadget = BuildThm7();
  DatalogQuery rewriting = InverseRulesRewriting(gadget.query, gadget.views);
  CompiledProgram compiled(rewriting.program);
  Instance image = gadget.views.Image(gadget.DiamondChain(n));
  EvalOptions options;
  options.stats_planner = false;
  EvalStats stats;
  bool holds = false;
  for (auto _ : state) {
    stats = EvalStats{};
    Instance fixpoint = compiled.Eval(image, &stats, options);
    holds = fixpoint.NumRows(rewriting.goal) > 0;
  }
  state.counters["image_facts"] = static_cast<double>(image.num_facts());
  state.counters["eval_iters"] = static_cast<double>(stats.iterations);
  state.counters["facts_derived"] = static_cast<double>(stats.facts_derived);
  state.counters["join_probes"] = static_cast<double>(stats.join_probes);
  state.SetLabel(holds ? "rewriting holds on the row family (Figure 4)"
                       : "UNEXPECTED: rewriting failed");
}
BENCHMARK(BM_Fig4_RowFamilyEval_StaticPlan)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_Fig4_UnravelledImageHasNoRows(benchmark::State& state) {
  Thm7Gadget gadget = BuildThm7();
  Instance image = gadget.views.Image(gadget.DiamondChain(5));
  UnravelOptions options;
  options.k = 4;
  options.depth = 2;
  options.one_overlap = true;
  Unravelling u = BoundedUnravelling(image, options);
  bool separation = true;
  for (auto _ : state) {
    separation = HasHomomorphism(gadget.RRowPattern(1), u.inst) &&
                 !HasHomomorphism(gadget.RRowPattern(2), u.inst);
  }
  state.counters["unravelling_nodes"] = static_cast<double>(u.nodes);
  state.SetLabel(separation
                     ? "rows of length >= 2 break in J'_k (Thm 7 proof)"
                     : "SEPARATION FAILED");
}
BENCHMARK(BM_Fig4_UnravelledImageHasNoRows);

}  // namespace
}  // namespace mondet
