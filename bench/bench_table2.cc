// Table 2: decidability and complexity of monotonic determinacy. One
// benchmark (family) per cell: positive cells run the decision procedure
// on growing inputs; the undecidable cells run the reductions whose
// behaviour tracks the undecidable source problem; the separator row
// measures the Thm 9 cost growth.

#include <benchmark/benchmark.h>

#include <string>

#include "core/mondet_check.h"
#include "core/separator.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/parser.h"
#include "reductions/prop9.h"
#include "reductions/thm6.h"
#include "reductions/thm6_stratified.h"
#include "reductions/thm9.h"

namespace mondet {
namespace {

/// Path CQ of length n: Q() :- R(x0,x1), ..., R(x_{n-1},x_n).
CQ PathCq(const VocabularyPtr& vocab, PredId r, int n) {
  CQ cq(vocab);
  std::vector<VarId> vars;
  for (int i = 0; i <= n; ++i) vars.push_back(cq.AddVar());
  for (int i = 0; i < n; ++i) cq.AddAtom(r, {vars[i], vars[i + 1]});
  cq.SetFreeVars({});
  return cq;
}

// --- Cell: CQ / CQ — NP-complete [21]; exact canonical tests. ------------
void BM_T2_CqCq_Exact(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  CQ q = PathCq(vocab, r, 2 * n);
  ViewSet views(vocab);
  // View = 2-step pairs: determined for even path lengths.
  std::string error;
  views.AddCqView("V", *ParseCq("V(x,z) :- R(x,y), R(y,z).", vocab, &error));
  Verdict verdict = Verdict::kUnknownBounded;
  for (auto _ : state) {
    MonDetResult result =
        CheckMonotonicDeterminacy(CqAsDatalog(q, "G" + std::to_string(n)),
                                  views);
    verdict = result.verdict;
  }
  state.SetLabel(verdict == Verdict::kDetermined
                     ? "exact: determined (paper: NP-complete)"
                     : "exact: not determined");
}
BENCHMARK(BM_T2_CqCq_Exact)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// --- Cell: UCQ / UCQ — Πp2-complete [22]; exact canonical tests. ---------
void BM_T2_UcqUcq_Exact(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  PredId s = vocab->AddPredicate("S", 1);
  UCQ q(vocab);
  q.AddDisjunct(PathCq(vocab, r, 2 * n));
  {
    CQ d(vocab);
    VarId x = d.AddVar();
    d.AddAtom(s, {x});
    d.SetFreeVars({});
    q.AddDisjunct(d);
  }
  ViewSet views(vocab);
  std::string error;
  views.AddCqView("V", *ParseCq("V(x,z) :- R(x,y), R(y,z).", vocab, &error));
  views.AddAtomicView("VS", s);
  Verdict verdict = Verdict::kUnknownBounded;
  for (auto _ : state) {
    verdict = CheckMonotonicDeterminacy(UcqAsDatalog(q, "G"), views).verdict;
  }
  state.SetLabel(verdict == Verdict::kDetermined
                     ? "exact: determined (paper: Pi^p_2-complete)"
                     : "exact: not determined");
}
BENCHMARK(BM_T2_UcqUcq_Exact)->Arg(1)->Arg(2)->Arg(3);

// --- Cell: CQ / Datalog — 2ExpTime (Thm 5, automata). ---------------------
void BM_T2_CqDatalog_Thm5(benchmark::State& state, bool antichain) {
  int n = static_cast<int>(state.range(0));
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  PredId u = vocab->AddPredicate("U", 1);
  CQ q(vocab);
  {
    std::vector<VarId> vars;
    for (int i = 0; i <= n; ++i) vars.push_back(q.AddVar());
    for (int i = 0; i < n; ++i) q.AddAtom(r, {vars[i], vars[i + 1]});
    q.AddAtom(u, {vars[n]});
    q.SetFreeVars({});
  }
  std::string error;
  std::vector<Diagnostic> diags;
  auto def = ParseQuery(
      "Reach(x) :- R(x,y), U(y).\nReach(x) :- R(x,y), Reach(y).", "Reach",
      vocab, &diags);
  ViewSet views(vocab);
  views.AddView("VReach", *def);
  views.AddAtomicView("VR", r);
  ContainmentOptions options;
  options.antichain = antichain;
  size_t pairs = 0;
  size_t visits = 0;
  size_t macrostates = 0;
  size_t prunes = 0;
  bool determined = false;
  for (auto _ : state) {
    Thm5Result result = CheckCqOverDatalogViews(q, views, options);
    pairs = result.pairs_explored;
    visits = result.transition_visits;
    macrostates = result.macrostates_visited;
    prunes = result.subsumption_prunes;
    determined = result.determined;
  }
  state.counters["state_pairs"] = static_cast<double>(pairs);
  state.counters["transition_visits"] = static_cast<double>(visits);
  state.counters["macrostates"] = static_cast<double>(macrostates);
  state.counters["subsumption_prunes"] = static_cast<double>(prunes);
  state.SetLabel(std::string("exact automata decision: ") +
                 (determined ? "determined" : "not determined") +
                 " (paper: 2ExpTime-complete)");
}
// The antichain-on/off twins decide identically (verdicts and
// counterexamples are bit-identical by contract). The pruned walk interns
// fewer pairs and DP states; with bitset DP states its inclusion tests are
// cheap, so it ties at n <= 2 and is faster at n >= 3 (docs/EVALUATION.md,
// "The Thm 5 path").
void BM_T2_CqDatalog_Thm5_Antichain(benchmark::State& state) {
  BM_T2_CqDatalog_Thm5(state, /*antichain=*/true);
}
void BM_T2_CqDatalog_Thm5_FullFixpoint(benchmark::State& state) {
  BM_T2_CqDatalog_Thm5(state, /*antichain=*/false);
}
BENCHMARK(BM_T2_CqDatalog_Thm5_Antichain)->Arg(1)->Arg(2)->Arg(3)->Arg(4);
BENCHMARK(BM_T2_CqDatalog_Thm5_FullFixpoint)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// --- Cell: FGDL / FGDL — decidable, 2ExpTime (Thm 3). --------------------
// Realized by the Lemma 5 canonical-test engine on FGDL pairs (exact
// refuter; bounded verifier — see DESIGN.md substitution notes).
void BM_T2_FgdlFgdl_BoundedTests(benchmark::State& state) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(R"(
    Conn(x,y) :- S(x,y,z).
    Conn(x,y) :- S(x,y,z), Conn(x,z), Conn(z,y).
    Goal() :- Conn(x,x).
  )",
                      "Goal", vocab, &diags);
  ViewSet views(vocab);
  views.AddAtomicView("VS", *vocab->FindPredicate("S"));
  size_t tests = 0;
  Verdict verdict = Verdict::kUnknownBounded;
  for (auto _ : state) {
    MonDetOptions options;
    options.query_depth = static_cast<int>(state.range(0));
    MonDetResult result = CheckMonotonicDeterminacy(*q, views, options);
    tests = result.tests_run;
    verdict = result.verdict;
  }
  state.counters["tests"] = static_cast<double>(tests);
  state.SetLabel(verdict == Verdict::kNotDetermined
                     ? "refuted"
                     : "no counterexample (paper: decidable, 2ExpTime)");
}
BENCHMARK(BM_T2_FgdlFgdl_BoundedTests)->Arg(2)->Arg(3);

// --- Cell: MDL / MDL+CQ — decidable, 3ExpTime (Thm 4). -------------------
void BM_T2_MdlMdlCq_BoundedTests(benchmark::State& state) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(R"(
    P(x) :- U(x).
    P(x) :- R(x,y), P(y).
    Goal() :- P(x).
  )",
                      "Goal", vocab, &diags);
  auto vdef = ParseQuery(
      "VP(x) :- U(x).\nVP(x) :- R(x,y), VP(y).", "VP", vocab, &diags);
  ViewSet views(vocab);
  views.AddView("VReach", *vdef);  // MDL view
  views.AddAtomicView("VR", *vocab->FindPredicate("R"));  // CQ view
  size_t tests = 0;
  Verdict verdict = Verdict::kUnknownBounded;
  for (auto _ : state) {
    MonDetOptions options;
    options.query_depth = static_cast<int>(state.range(0));
    options.view_depth = static_cast<int>(state.range(0));
    MonDetResult result = CheckMonotonicDeterminacy(*q, views, options);
    tests = result.tests_run;
    verdict = result.verdict;
  }
  state.counters["tests"] = static_cast<double>(tests);
  state.SetLabel(verdict == Verdict::kNotDetermined
                     ? "refuted"
                     : "no counterexample (paper: decidable, 3ExpTime)");
}
BENCHMARK(BM_T2_MdlMdlCq_BoundedTests)->Arg(2)->Arg(3);

// --- Thread sweep over the MDL/MDL+CQ family at a depth where the test
// block is large (≥1000 canonical tests per check). range(0) = worker
// count. The verdict and counters are identical across all three variants
// (mondet_parallel_test proves this bit-for-bit); only wall time moves.
void BM_T2_MdlMdlCq_Threads(benchmark::State& state) {
  auto vocab = MakeVocabulary();
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(R"(
    P(x) :- U(x).
    P(x) :- R(x,y), P(y).
    Goal() :- P(x).
  )",
                      "Goal", vocab, &diags);
  auto vdef = ParseQuery(
      "VP(x) :- U(x).\nVP(x) :- R(x,y), VP(y).", "VP", vocab, &diags);
  ViewSet views(vocab);
  views.AddView("VReach", *vdef);
  views.AddAtomicView("VR", *vocab->FindPredicate("R"));
  MonDetOptions options;
  options.query_depth = 6;
  options.view_depth = 6;
  options.max_query_expansions = 100;
  options.max_tests_per_expansion = 2000;
  options.num_threads = static_cast<int>(state.range(0));
  MonDetResult result;
  for (auto _ : state) {
    result = CheckMonotonicDeterminacy(*q, views, options);
  }
  state.counters["tests"] = static_cast<double>(result.tests_run);
}
BENCHMARK(BM_T2_MdlMdlCq_Threads)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

// --- Cell: MDL / UCQ — undecidable (Thm 6). -------------------------------
// The reduction's behaviour tracks the tiling problem exactly.
void BM_T2_MdlUcq_Undecidable(benchmark::State& state) {
  bool solvable = state.range(0) == 1;
  TilingProblem tp =
      solvable ? SolvableTilingProblem() : UnsolvableTilingProblem();
  Verdict verdict = Verdict::kUnknownBounded;
  for (auto _ : state) {
    Thm6Gadget gadget = BuildThm6(tp);
    MonDetOptions options;
    options.query_depth = 4;
    options.view_depth = 3;
    options.max_query_expansions = 40;
    options.max_tests_per_expansion = 3000;
    verdict =
        CheckMonotonicDeterminacy(gadget.query, gadget.views, options).verdict;
  }
  bool matches = solvable == (verdict == Verdict::kNotDetermined);
  state.SetLabel(std::string(solvable ? "solvable tiling" : "unsolvable tiling") +
                 (matches ? ": reduction verdict matches (paper: undecidable)"
                          : ": REDUCTION BROKEN"));
}
BENCHMARK(BM_T2_MdlUcq_Undecidable)->Arg(1)->Arg(0);

// --- Thread sweep over the solvable Thm 6 gadget: the refuter has to walk
// ~3500 canonical tests before the counterexample index, so this family
// exposes the parallel block scan. range(0) = worker count.
void BM_T2_MdlUcq_Threads(benchmark::State& state) {
  TilingProblem tp = SolvableTilingProblem();
  Thm6Gadget gadget = BuildThm6(tp);
  MonDetOptions options;
  options.query_depth = 4;
  options.view_depth = 3;
  options.max_query_expansions = 40;
  options.max_tests_per_expansion = 3000;
  options.num_threads = static_cast<int>(state.range(0));
  MonDetResult result;
  for (auto _ : state) {
    result = CheckMonotonicDeterminacy(gadget.query, gadget.views, options);
  }
  state.counters["tests"] = static_cast<double>(result.tests_run);
  state.SetLabel(result.verdict == Verdict::kNotDetermined
                     ? "refuted"
                     : "NO COUNTEREXAMPLE");
}
BENCHMARK(BM_T2_MdlUcq_Threads)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

// --- Cell: Datalog / fixed atomic view — undecidable (Prop. 9, Lemma 8). --
void BM_T2_DatalogAtomic_Lemma8(benchmark::State& state) {
  bool contained = state.range(0) == 1;
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  DatalogQuery q1 = contained
                        ? *ParseQuery("G1() :- R(x,y), R(y,z).", "G1", vocab,
                                      &diags)
                        : *ParseQuery("G1() :- R(x,y).", "G1", vocab, &diags);
  DatalogQuery q2 = contained
                        ? *ParseQuery("G2() :- R(x,y).", "G2", vocab, &diags)
                        : *ParseQuery("G2() :- R(x,x).", "G2", vocab, &diags);
  Verdict verdict = Verdict::kUnknownBounded;
  for (auto _ : state) {
    Prop9Reduction reduction = ContainmentToMonDet(q1, q2);
    verdict =
        CheckMonotonicDeterminacy(reduction.query, reduction.views).verdict;
  }
  bool matches = contained == (verdict != Verdict::kNotDetermined);
  state.SetLabel(std::string(contained ? "Q1⊑Q2" : "Q1⋢Q2") +
                 (matches ? ": reduction verdict matches (paper: undecidable)"
                          : ": REDUCTION BROKEN"));
}
BENCHMARK(BM_T2_DatalogAtomic_Lemma8)->Arg(1)->Arg(0);

// --- Conclusion / appendix: the Thm 8 query, with no Datalog rewriting,
// still has a PTime *stratified* separator (positive Boolean combination
// with a ProductTest stratum). Verified against the query on instance
// families.
void BM_T2_StratifiedSeparator(benchmark::State& state) {
  Thm6Gadget gadget = BuildThm6(UnsolvableTilingProblem());
  int n = static_cast<int>(state.range(0));
  bool agree = true;
  for (auto _ : state) {
    Instance axes = gadget.MakeAxes(n, n);
    agree = agree && DatalogHoldsOn(gadget.query, axes) ==
                         StratifiedRewritingHolds(
                             gadget, gadget.views.Image(axes));
    std::vector<int> tiles(static_cast<size_t>(n) * n, 0);
    Instance grid = gadget.MakeGridTest(n, n, tiles);
    agree = agree && DatalogHoldsOn(gadget.query, grid) ==
                         StratifiedRewritingHolds(
                             gadget, gadget.views.Image(grid));
  }
  state.SetLabel(agree
                     ? "stratified separator exact (appendix: PTime "
                       "separator despite no Datalog rewriting)"
                     : "SEPARATOR MISMATCH");
}
BENCHMARK(BM_T2_StratifiedSeparator)->Arg(2)->Arg(3);

// --- Separator row (Thm 9): the chase separator's cost grows with the
// machine's runtime — no fixed time bound can hold for all Datalog pairs.
void BM_T2_Thm9_SeparatorCost(benchmark::State& state) {
  static Thm9Gadget* gadget = new Thm9Gadget(BuildThm9(EraserMachine()));
  int n = static_cast<int>(state.range(0));
  std::vector<int> input(n, 1);
  Instance run = gadget->EncodeRun(input, 100000);
  size_t run_facts = run.num_facts();
  static CompiledProgram* compiled =
      new CompiledProgram(gadget->query.program);
  bool accepted = false;
  EvalStats stats;
  for (auto _ : state) {
    // The separator work: decide Q from the encoded run (the dominant
    // cost is re-checking the simulation, which grows ~quadratically).
    stats = EvalStats{};
    accepted =
        !compiled->Eval(run, &stats).NumRows(gadget->query.goal) == 0;
  }
  state.counters["run_facts"] = static_cast<double>(run_facts);
  state.counters["eval_iters"] = static_cast<double>(stats.iterations);
  state.counters["join_probes"] = static_cast<double>(stats.join_probes);
  state.SetLabel(accepted
                     ? "separator re-simulates M (paper: no TIME(f) bound)"
                     : "UNEXPECTED REJECT");
}
BENCHMARK(BM_T2_Thm9_SeparatorCost)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

}  // namespace
}  // namespace mondet
