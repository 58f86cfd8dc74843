// Churn benchmark for incremental view maintenance: a maintained view
// image under small insert/delete batches versus from-scratch
// recomputation of the same image. The workload is transitive closure
// over an n-node path — the image carries Θ(n²) facts while cutting and
// re-adding the head edge only touches the Θ(n) paths through it, so
// maintenance (Backward/Forward deletion on every stratum, then the
// evaluator's stratum loop continued from the write's new rows) must
// beat recompute by a widening margin as n grows. bench_snapshot.sh
// records both families in BENCH_maintenance.json; the acceptance bar is
// maintain ≥ 2x recompute on these small-delta steps. The path rows
// disprove every candidate, so the backward search saves nothing there,
// and each mend inserts the Θ(n) closure facts in the continuation's
// delta rounds; the dense row (perfbench `churn`'s graph shape, a series
// of edge swaps on four graphs) keeps its whole strongly connected
// closure, and the search proves every closure candidate without
// removing a closure fact. The projection row
// is a non-recursive view with fan-in, where each delete disproves one
// fact by one head-bound join and each insert derives it again at the
// continuation's atom seat.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "datalog/eval_plan.h"
#include "datalog/parser.h"
#include "views/maintained_image.h"
#include "views/view_set.h"

namespace mondet {
namespace {

struct ChurnWorkload {
  VocabularyPtr vocab = MakeVocabulary();
  ViewSet views;
  Instance base;
  PredId r = kNoPred;
  Fact head_edge;

  explicit ChurnWorkload(int n)
      : views(vocab), base(vocab), head_edge(0, {}) {
    r = vocab->AddPredicate("R", 2);
    PredId u = vocab->AddPredicate("U", 1);
    views.AddAtomicView("VR", r);
    views.AddAtomicView("VU", u);
    // Recursive transitive-closure view next to the atomic ones: the
    // backward search proves or disproves closure paths, an atomic view
    // fact goes with its base fact.
    std::vector<Diagnostic> diags;
    auto vt = ParseQuery(R"(
      VT0(x,y) :- R(x,y).
      VT0(x,z) :- R(x,y), VT0(y,z).
    )",
                         "VT0", vocab, &diags);
    views.AddView("VT", *vt);
    std::vector<ElemId> nodes;
    for (int i = 0; i < n; ++i) nodes.push_back(base.AddElement());
    for (int i = 0; i + 1 < n; ++i) {
      base.AddFact(r, {nodes[i], nodes[i + 1]});
    }
    base.AddFact(u, {nodes[n - 1]});
    head_edge = Fact(r, {nodes[0], nodes[1]});
  }
};

/// The facts Backward/Forward disproved and of those the continuation put
/// back, and the probes (the kernel probes of Backward/Forward's joins
/// and of the continuation), per iteration, or per write
/// for a row of `writes` writes per iteration: the totals of the timed
/// loop depend on how many iterations it ran.
void SetMaintainCounters(benchmark::State& state, const EvalStats& stats,
                         int writes = 1) {
  auto per = [&](size_t total) {
    return benchmark::Counter(static_cast<double>(total) / writes,
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["overdeleted"] = per(stats.overdeleted);
  state.counters["rederived"] = per(stats.rederived);
  state.counters["probes"] = per(stats.join_probes);
}

/// Whether the maintained image is bit-identical (as a set) to a
/// recompute.
bool ImageFresh(const MaintainedImage& maintained) {
  Instance fresh = maintained.FreshImage();
  std::vector<Fact> got = maintained.image().AllFacts();
  std::vector<Fact> want = fresh.AllFacts();
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

/// The headline contract, checked once after the timed loop.
void LabelImageCheck(benchmark::State& state, bool fresh) {
  state.SetLabel(fresh ? "maintained image == recomputed image"
                       : "MAINTENANCE DIVERGED");
}

/// One churn cycle: cut the head edge, then restore it. Net zero, so the
/// workload is stable across iterations; the cut disproves and the
/// restore re-inserts the Θ(n) closure facts through the edge out of the
/// Θ(n²) image.
void BM_Maintenance_ChurnMaintain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ChurnWorkload w(n);
  MaintainedImage maintained(w.views, w.base);
  EvalStats stats;
  size_t touched = 0;
  for (auto _ : state) {
    ImageDelta cut = maintained.ApplyDelta({}, {w.head_edge}, &stats);
    ImageDelta mend = maintained.ApplyDelta({w.head_edge}, {}, &stats);
    touched = cut.deletes.size() + mend.inserts.size();
  }
  state.counters["image_facts"] =
      static_cast<double>(maintained.image().num_facts());
  state.counters["touched_per_cycle"] = static_cast<double>(touched);
  SetMaintainCounters(state, stats);
  LabelImageCheck(state, ImageFresh(maintained));
}
BENCHMARK(BM_Maintenance_ChurnMaintain)->Arg(64)->Arg(256)->Arg(512);

/// perfbench `churn`'s graph: n nodes, each of in- and out-degree 3 (the
/// union of three random permutations that share no edge), so the
/// closure is strongly connected and holds all n² pairs, and kSwaps edge
/// swaps (a,b), (c,d) → (a,d), (c,b) that keep every degree, each drawn
/// on the graph as built. Graph and swaps follow from `seed`.
struct DenseWorkload {
  static constexpr int kSwaps = 8;
  struct Swap {
    std::vector<Fact> out, in;
  };
  VocabularyPtr vocab = MakeVocabulary();
  ViewSet views;
  Instance base;
  std::vector<Swap> swaps;

  DenseWorkload(int n, uint64_t seed) : views(vocab), base(vocab) {
    const PredId r = vocab->AddPredicate("R", 2);
    const PredId u = vocab->AddPredicate("U", 1);
    views.AddAtomicView("VR", r);
    views.AddAtomicView("VU", u);
    std::vector<Diagnostic> diags;
    auto vt = ParseQuery(R"(
      VT0(x,y) :- R(x,y).
      VT0(x,z) :- R(x,y), VT0(y,z).
    )",
                         "VT0", vocab, &diags);
    views.AddView("VT", *vt);
    const ElemId nodes = static_cast<ElemId>(n);
    base.EnsureElements(nodes);
    std::mt19937_64 rng(seed);
    std::vector<ElemId> target(nodes);
    for (int k = 0; k < 3; ++k) {
      for (bool clash = true; clash;) {
        std::iota(target.begin(), target.end(), ElemId{0});
        for (ElemId i = nodes - 1; i > 0; --i) {
          std::swap(target[i], target[rng() % (i + 1)]);
        }
        clash = false;
        for (ElemId x = 0; x < nodes && !clash; ++x) {
          clash = base.HasFact(r, {x, target[x]});
        }
      }
      for (ElemId x = 0; x < nodes; ++x) base.AddFact(r, {x, target[x]});
    }
    for (ElemId x = 0; x < nodes; x += 6) base.AddFact(u, {x});
    const uint32_t edges = base.NumRows(r);
    while (swaps.size() < kSwaps) {
      const std::span<const ElemId> ab = base.Args(r, rng() % edges);
      const std::span<const ElemId> cd = base.Args(r, rng() % edges);
      const Fact ad(r, {ab[0], cd[1]}), cb(r, {cd[0], ab[1]});
      if (ab[0] == cd[0] || ab[1] == cd[1] || base.HasFact(ad) ||
          base.HasFact(cb)) {
        continue;
      }
      swaps.push_back({{Fact(r, {ab[0], ab[1]}), Fact(r, {cd[0], cd[1]})},
                       {ad, cb}});
    }
  }
};

/// Every swap of four graphs (seeds 1-4), each followed by its inverse,
/// per iteration: 64 writes. Each write makes the closure facts through
/// its two removed edges candidates (about 2n) and proves every one of
/// them, so what it disproves are the two edges' VR facts. A single
/// swap's join work follows the order of its graph's buckets; an average
/// over many swaps follows the engine. Every iteration maintains fresh
/// copies of the four graphs (untimed), so the work, and with it every
/// counter, is the same whatever the iteration count. The counters and
/// `s_per_write` are per write.
void BM_Maintenance_DenseSwap(benchmark::State& state) {
  constexpr int kGraphs = 4;
  constexpr int kWrites = 2 * kGraphs * DenseWorkload::kSwaps;
  std::vector<DenseWorkload> graphs;
  graphs.reserve(kGraphs);
  for (int g = 0; g < kGraphs; ++g) {
    graphs.emplace_back(static_cast<int>(state.range(0)), g + 1);
  }
  std::vector<MaintainedImage> maintained;
  maintained.reserve(kGraphs);
  EvalStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    maintained.clear();
    for (const DenseWorkload& w : graphs) {
      maintained.emplace_back(w.views, w.base);
    }
    state.ResumeTiming();
    for (int g = 0; g < kGraphs; ++g) {
      for (const DenseWorkload::Swap& s : graphs[g].swaps) {
        ImageDelta swap = maintained[g].ApplyDelta(s.in, s.out, &stats);
        ImageDelta back = maintained[g].ApplyDelta(s.out, s.in, &stats);
        benchmark::DoNotOptimize(swap);
        benchmark::DoNotOptimize(back);
      }
    }
  }
  size_t image_facts = 0;
  for (const MaintainedImage& m : maintained) {
    image_facts += m.image().num_facts();
  }
  state.counters["image_facts"] = static_cast<double>(image_facts);
  SetMaintainCounters(state, stats, kWrites);
  state.counters["s_per_write"] = benchmark::Counter(
      kWrites, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
  LabelImageCheck(state, std::all_of(maintained.begin(), maintained.end(),
                                     ImageFresh));
}
BENCHMARK(BM_Maintenance_DenseSwap)->Arg(50);

/// A non-recursive projection view with fan-in: V(y) :- R(x,z), S(z,y).
/// over 50 middles z, each with `fan_in` R(x,z) facts (the same `fan_in`
/// sources x for every z) and one S(z,y) fact of its own y, so each of the
/// 50 V facts has `fan_in` derivations.
struct ProjectionWorkload {
  static constexpr ElemId kMiddles = 50;
  VocabularyPtr vocab = MakeVocabulary();
  ViewSet views;
  Instance base;
  Fact s_fact;

  explicit ProjectionWorkload(int fan_in)
      : views(vocab), base(vocab), s_fact(0, {}) {
    const PredId r = vocab->AddPredicate("R", 2);
    const PredId s = vocab->AddPredicate("S", 2);
    std::string error;
    auto v = ParseCq("V(y) :- R(x,z), S(z,y).", vocab, &error);
    views.AddCqView("V", *v);
    const ElemId sources = static_cast<ElemId>(fan_in);
    base.EnsureElements(sources + 2 * kMiddles);
    for (ElemId z = 0; z < kMiddles; ++z) {
      for (ElemId x = 0; x < sources; ++x) {
        base.AddFact(r, {x, sources + z});
      }
      base.AddFact(s, {sources + z, sources + kMiddles + z});
    }
    s_fact = Fact(s, {sources, sources + kMiddles});
  }
};

/// One S fact deleted and re-inserted per iteration: the delete takes its
/// V fact's last derivations away, the insert gives them back.
void BM_Maintenance_ProjectionChurn(benchmark::State& state) {
  ProjectionWorkload w(static_cast<int>(state.range(0)));
  MaintainedImage maintained(w.views, w.base);
  EvalStats stats;
  for (auto _ : state) {
    ImageDelta cut = maintained.ApplyDelta({}, {w.s_fact}, &stats);
    ImageDelta mend = maintained.ApplyDelta({w.s_fact}, {}, &stats);
    benchmark::DoNotOptimize(cut);
    benchmark::DoNotOptimize(mend);
  }
  state.counters["image_facts"] =
      static_cast<double>(maintained.image().num_facts());
  SetMaintainCounters(state, stats);
  LabelImageCheck(state, ImageFresh(maintained));
}
BENCHMARK(BM_Maintenance_ProjectionChurn)->Arg(80);

/// The same churn cycle answered by from-scratch recomputation: mutate
/// the base, rebuild the whole view image, restore, rebuild again.
void BM_Maintenance_ChurnRecompute(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ChurnWorkload w(n);
  size_t image_facts = 0;
  for (auto _ : state) {
    w.base.RemoveFact(w.head_edge);
    Instance cut_image = w.views.Image(w.base);
    w.base.AddFact(w.head_edge);
    Instance full_image = w.views.Image(w.base);
    image_facts = full_image.num_facts();
    benchmark::DoNotOptimize(cut_image);
    benchmark::DoNotOptimize(full_image);
  }
  state.counters["image_facts"] = static_cast<double>(image_facts);
  state.SetLabel("from-scratch image per churn step");
}
BENCHMARK(BM_Maintenance_ChurnRecompute)->Arg(64)->Arg(256)->Arg(512);

/// Self-checking speedup gauge: times both strategies back to back over
/// the same cycles and reports the ratio, so the ≥2x acceptance bar is a
/// counter in BENCH_maintenance.json rather than a post-processing step.
void BM_Maintenance_Speedup(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ChurnWorkload w(n);
  MaintainedImage maintained(w.views, w.base);
  const int cycles = 3;
  double speedup = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < cycles; ++i) {
      maintained.ApplyDelta({}, {w.head_edge});
      maintained.ApplyDelta({w.head_edge}, {});
    }
    auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < cycles; ++i) {
      w.base.RemoveFact(w.head_edge);
      Instance cut_image = w.views.Image(w.base);
      w.base.AddFact(w.head_edge);
      Instance full_image = w.views.Image(w.base);
      benchmark::DoNotOptimize(cut_image);
      benchmark::DoNotOptimize(full_image);
    }
    auto t2 = std::chrono::steady_clock::now();
    double maintain_s = std::chrono::duration<double>(t1 - t0).count();
    double recompute_s = std::chrono::duration<double>(t2 - t1).count();
    speedup = maintain_s > 0 ? recompute_s / maintain_s : 0;
  }
  state.counters["speedup"] = speedup;
  state.SetLabel(speedup >= 2.0
                     ? "maintenance >= 2x recompute on small-delta churn"
                     : "SPEEDUP BELOW 2x");
}
BENCHMARK(BM_Maintenance_Speedup)->Arg(64)->Arg(256)->Arg(512);

}  // namespace
}  // namespace mondet
