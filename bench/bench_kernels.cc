// Probe-shape microbenchmarks for the compiled join kernels: each
// family drives one KernelStep shape — the single-position probe
// (kProbe1, the transitive-closure join), the two-position binary-min
// probe (kProbe2, two bound positions of a wider atom), the fully-bound
// membership filter (kMembership), and the unbound scan (kScan) —
// through the real evaluator, once with the kernel plane and once
// through the generic interpreter (EvalOptions::compiled_kernels =
// false, the escape hatch). The on/off pair shares one workload, so
// their time delta is the kernel's worth on that shape and nothing
// else; kernel_differential_test pins that the outputs are
// byte-identical. Every benchmark self-checks the on/off fact counts in
// SetLabel, and bench_snapshot.sh records the family in
// BENCH_kernels.json.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "base/instance.h"
#include "datalog/eval_plan.h"
#include "datalog/parser.h"

namespace mondet {
namespace {

/// A workload is a program (by text) plus an instance builder; the
/// benchmark pair evaluates it with kernels on and off.
struct Workload {
  VocabularyPtr vocab = MakeVocabulary();
  std::optional<Program> program;
  Instance inst;

  Workload() : inst(vocab) {}
};

/// kProbe1: transitive closure over an n-node path. The recursive seat
/// probes R on its first position with one bound variable — the hottest
/// shape of the Figure 4 row family.
Workload Probe1Workload(int n) {
  Workload w;
  PredId r = w.vocab->AddPredicate("R", 2);
  ParseResult pr = ParseProgram(R"(
    T(x,y) :- R(x,y).
    T(x,z) :- R(x,y), T(y,z).
  )",
                                w.vocab);
  w.program = std::move(pr.program);
  std::vector<ElemId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(w.inst.AddElement());
  for (int i = 0; i + 1 < n; ++i) w.inst.AddFact(r, {nodes[i], nodes[i + 1]});
  return w;
}

/// kProbe2: a 3-ary relation joined on two bound positions, leaving one
/// free — the kernel takes the smaller of two index buckets and
/// constant-tests the other position before touching the row.
Workload Probe2Workload(int n) {
  Workload w;
  PredId r = w.vocab->AddPredicate("R", 2);
  PredId wp = w.vocab->AddPredicate("W", 3);
  ParseResult pr = ParseProgram(R"(
    Q(x,u) :- R(x,y), W(x,y,u).
    Q(x,u) :- Q(x,v), W(x,v,u).
  )",
                                w.vocab);
  w.program = std::move(pr.program);
  std::vector<ElemId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(w.inst.AddElement());
  for (int i = 0; i + 1 < n; ++i) {
    w.inst.AddFact(r, {nodes[i], nodes[i + 1]});
    // A few W rows per (x, y) pair so the probe enumerates, not just
    // checks.
    for (int k = 0; k < 4; ++k) {
      w.inst.AddFact(wp, {nodes[i], nodes[i + 1],
                          nodes[(i + k) % n]});
    }
  }
  return w;
}

/// kMembership: a fully-bound filter atom — every variable of E is bound
/// by the time the order reaches it, so the kernel replaces a bucket
/// scan with one hash probe of the fact table.
Workload MembershipWorkload(int n) {
  Workload w;
  PredId r = w.vocab->AddPredicate("R", 2);
  PredId e = w.vocab->AddPredicate("E", 2);
  ParseResult pr = ParseProgram(R"(
    T(x,y) :- R(x,y).
    T(x,z) :- R(x,y), T(y,z), E(x,z).
  )",
                                w.vocab);
  w.program = std::move(pr.program);
  std::vector<ElemId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(w.inst.AddElement());
  for (int i = 0; i + 1 < n; ++i) w.inst.AddFact(r, {nodes[i], nodes[i + 1]});
  // E admits every pair at distance <= 3, so membership passes often
  // enough to keep deriving but prunes the long tails.
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= 3 && i + d < n; ++d) {
      w.inst.AddFact(e, {nodes[i], nodes[i + d]});
    }
  }
  return w;
}

/// kScan: a body atom with no bound variable (the cross-product tail of
/// a disconnected rule) — the kernel walks the column arena directly.
Workload ScanWorkload(int n) {
  Workload w;
  PredId u = w.vocab->AddPredicate("U", 1);
  PredId v = w.vocab->AddPredicate("V", 1);
  ParseResult pr = ParseProgram(R"(
    P(x,y) :- U(x), V(y).
  )",
                                w.vocab);
  w.program = std::move(pr.program);
  std::vector<ElemId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(w.inst.AddElement());
  for (int i = 0; i < n; ++i) {
    w.inst.AddFact(u, {nodes[i]});
    w.inst.AddFact(v, {nodes[i]});
  }
  return w;
}

void RunShape(benchmark::State& state, const Workload& w, bool kernels) {
  CompiledProgram compiled(*w.program);
  EvalOptions options;
  options.compiled_kernels = kernels;
  // Defeat the size gate: these microbenches measure the kernel plane
  // itself, including on the 64-node workloads below the default gate.
  options.kernel_min_facts = 0;
  EvalStats stats;
  size_t facts = 0;
  for (auto _ : state) {
    stats = EvalStats{};
    Instance fix = compiled.Eval(w.inst, &stats, options);
    facts = fix.num_facts();
  }
  // The escape-hatch cross-check: the other plane derives the same
  // number of facts on this workload (byte-identity is pinned by
  // kernel_differential_test; the count here keeps the bench honest).
  EvalOptions other = options;
  other.compiled_kernels = !kernels;
  const size_t other_facts = compiled.Eval(w.inst, nullptr, other).num_facts();
  state.counters["facts"] = static_cast<double>(facts);
  state.counters["facts_derived"] = static_cast<double>(stats.facts_derived);
  state.counters["join_probes"] = static_cast<double>(stats.join_probes);
  state.SetLabel(facts == other_facts
                     ? (kernels ? "compiled kernels" : "generic interpreter")
                     : "UNEXPECTED: kernels on/off disagree");
}

void BM_Kernel_Probe1(benchmark::State& state) {
  RunShape(state, Probe1Workload(static_cast<int>(state.range(0))), true);
}
void BM_Kernel_Probe1_Off(benchmark::State& state) {
  RunShape(state, Probe1Workload(static_cast<int>(state.range(0))), false);
}
BENCHMARK(BM_Kernel_Probe1)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_Kernel_Probe1_Off)->Arg(64)->Arg(256)->Arg(1024);

void BM_Kernel_Probe2(benchmark::State& state) {
  RunShape(state, Probe2Workload(static_cast<int>(state.range(0))), true);
}
void BM_Kernel_Probe2_Off(benchmark::State& state) {
  RunShape(state, Probe2Workload(static_cast<int>(state.range(0))), false);
}
BENCHMARK(BM_Kernel_Probe2)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_Kernel_Probe2_Off)->Arg(64)->Arg(256)->Arg(1024);

void BM_Kernel_Membership(benchmark::State& state) {
  RunShape(state, MembershipWorkload(static_cast<int>(state.range(0))), true);
}
void BM_Kernel_Membership_Off(benchmark::State& state) {
  RunShape(state, MembershipWorkload(static_cast<int>(state.range(0))),
           false);
}
BENCHMARK(BM_Kernel_Membership)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_Kernel_Membership_Off)->Arg(64)->Arg(256)->Arg(1024);

void BM_Kernel_Scan(benchmark::State& state) {
  RunShape(state, ScanWorkload(static_cast<int>(state.range(0))), true);
}
void BM_Kernel_Scan_Off(benchmark::State& state) {
  RunShape(state, ScanWorkload(static_cast<int>(state.range(0))), false);
}
BENCHMARK(BM_Kernel_Scan)->Arg(64)->Arg(256);
BENCHMARK(BM_Kernel_Scan_Off)->Arg(64)->Arg(256);

}  // namespace
}  // namespace mondet
