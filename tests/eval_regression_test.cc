// Regression pins for the compiled semi-naive evaluator on the paper's
// gadget families (Figures 1–5) at small parameters. The golden values
// (iteration counts and output sizes) were captured from the evaluator on
// the seed-equivalent fixpoints; a change here means either the gadget
// construction or the evaluator's iteration structure changed — both are
// worth noticing. Two tests pin the one join engine: any rule the parser
// accepts runs through the compiled kernels, and a program's cached
// kernels never change a result. The last test guards that the library
// never starts a thread of its own.

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/mondet_check.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "reductions/thm6.h"
#include "reductions/thm7.h"
#include "testing/reference.h"
#include "tests/test_util.h"
#include "views/inverse_rules.h"
#include "views/maintained_image.h"
#include "views/view_set.h"

namespace mondet {
namespace {

// ---------- Thm 7 diamond chains (Figures 3 and 4) -----------------------

struct Thm7Golden {
  int n;
  size_t chain_facts;
  size_t query_iterations;
  size_t query_fixpoint_facts;
  size_t image_iterations;
  size_t image_facts;  // S + R^(n-1) + T, so n+1 facts
  size_t rewriting_iterations;
};

TEST(EvalRegression, Thm7DiamondChainFamily) {
  // Iteration counts are semi-naive rounds summed over strata, each
  // stratum's initial round included, with every rule seated.
  const Thm7Golden goldens[] = {
      {1, 6, 3, 8, 3, 2, 13},
      {2, 10, 4, 13, 3, 3, 14},
      {3, 14, 5, 18, 3, 4, 15},
  };
  Thm7Gadget gadget = BuildThm7();
  DatalogQuery rewriting = InverseRulesRewriting(gadget.query, gadget.views);
  for (const Thm7Golden& g : goldens) {
    Instance chain = gadget.DiamondChain(g.n);
    EXPECT_EQ(chain.num_facts(), g.chain_facts) << "n=" << g.n;

    EvalStats qs;
    Instance qfix = FpEval(gadget.query.program, chain, &qs);
    EXPECT_EQ(qs.iterations, g.query_iterations) << "n=" << g.n;
    EXPECT_EQ(qfix.num_facts(), g.query_fixpoint_facts) << "n=" << g.n;
    EXPECT_FALSE(qfix.NumRows(gadget.query.goal) == 0) << "n=" << g.n;

    EvalStats is;
    Instance image = gadget.views.Image(chain, &is);
    EXPECT_EQ(is.iterations, g.image_iterations) << "n=" << g.n;
    EXPECT_EQ(image.num_facts(), g.image_facts) << "n=" << g.n;

    EvalStats rs;
    Instance rfix = FpEval(rewriting.program, image, &rs);
    EXPECT_EQ(rs.iterations, g.rewriting_iterations) << "n=" << g.n;
    // The rewriting agrees with the query on the diamond family (Thm 7).
    EXPECT_EQ(rfix.NumRows(rewriting.goal), 1u) << "n=" << g.n;
  }
}

// ---------- Thm 6 axes and grid tests (Figures 1 and 2) ------------------

TEST(EvalRegression, Thm6AxesAndGridTest) {
  TilingProblem tp = SolvableTilingProblem();
  Thm6Gadget gadget = BuildThm6(tp);

  Instance axes = gadget.MakeAxes(2, 2);
  EXPECT_EQ(axes.num_facts(), 10u);
  EvalStats as;
  Instance axes_image = gadget.views.Image(axes, &as);
  EXPECT_EQ(as.iterations, 13u);
  EXPECT_EQ(axes_image.num_facts(), 10u);

  auto solution = tp.Solve(2, 2);
  ASSERT_TRUE(solution);
  Instance test = gadget.MakeGridTest(2, 2, *solution);
  EXPECT_EQ(test.num_facts(), 18u);
  EvalStats ts;
  Instance tfix = FpEval(gadget.query.program, test, &ts);
  EXPECT_EQ(ts.iterations, 3u);
  // A valid tiling yields a failing test: Q_TP derives nothing on it.
  EXPECT_EQ(tfix.num_facts(), 18u);
  EXPECT_TRUE(tfix.NumRows(gadget.query.goal) == 0);
}

// ---------- Fig 5 chain views over a path --------------------------------

TEST(EvalRegression, Fig5ChainViewImages) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance path = MakePath(vocab, r, 16);
  // A length-len chain view over a 16-edge path has 17-len output pairs;
  // the view program is non-recursive, so it closes in one iteration in
  // one stratum.
  for (int len = 2; len <= 4; ++len) {
    ViewSet views(vocab);
    CQ cq(vocab);
    std::vector<VarId> vars;
    for (int i = 0; i <= len; ++i) vars.push_back(cq.AddVar());
    for (int i = 0; i < len; ++i) cq.AddAtom(r, {vars[i], vars[i + 1]});
    cq.SetFreeVars({vars[0], vars[len]});
    views.AddCqView("V", cq);
    EvalStats s;
    Instance image = views.Image(path, &s);
    EXPECT_EQ(s.iterations, 1u) << "len=" << len;
    EXPECT_EQ(s.strata.size(), 1u) << "len=" << len;
    EXPECT_EQ(image.num_facts(), static_cast<size_t>(17 - len))
        << "len=" << len;
  }
}

// ---------- One join engine: compiled kernels for every rule ------------

// `got` holds exactly the facts of `want`.
void ExpectSameFactSet(const Instance& want, const Instance& got) {
  ASSERT_EQ(got.num_facts(), want.num_facts());
  for (const Fact& f : want.AllFacts()) {
    EXPECT_TRUE(got.HasFact(f)) << FactToString(want, f);
  }
}

// `got` is `want` fact for fact, in insertion order.
void ExpectSameSequence(const Instance& want, const Instance& got,
                        const std::string& what) {
  ASSERT_EQ(got.num_facts(), want.num_facts()) << what;
  for (uint32_t i = 0; i < want.num_facts(); ++i) {
    ASSERT_TRUE(got.ViewAt(i) == want.ViewAt(i)) << what << ": fact " << i;
  }
}

// "x1,x2,...,x16,<first>" with x1 renamed to `first`: seventeen
// positions, sixteen distinct variables, the first one repeated last.
std::string Args17(const std::string& first) {
  std::string s = first;
  for (int i = 2; i <= 16; ++i) s += ",x" + std::to_string(i);
  return s + "," + first;
}

TEST(EvalRegression, WideRulesRunThroughKernels) {
  // Arity 17 with a repeated variable: in the seat (W), in a scanned
  // atom (E) and in a fully bound membership atom (F).
  {
    auto vocab = MakeVocabulary();
    const PredId e = vocab->AddPredicate("E", 17);
    const PredId f = vocab->AddPredicate("F", 17);
    const PredId s = vocab->AddPredicate("S", 2);
    ParseResult pr = ParseProgram(
        "W(" + Args17("x1") + ") :- E(" + Args17("x1") + "), F(" +
            Args17("x1") + ").\n" + "W(" + Args17("y") + ") :- W(" +
            Args17("x1") + "), S(x1,y).\n",
        vocab);
    ASSERT_TRUE(pr.ok()) << pr.error;
    Instance inst(vocab);
    inst.EnsureElements(20);
    for (ElemId t = 0; t < 12; ++t) {
      std::vector<ElemId> args;
      for (ElemId i = 0; i < 17; ++i) args.push_back((t * 7 + i * 3) % 20);
      // Odd tuples break the repeated variable's equality.
      if (t % 2 == 0) args[16] = args[0];
      inst.AddFact(e, args);
      if (t % 3 != 0) inst.AddFact(f, args);
    }
    for (ElemId i = 0; i + 1 < 20; ++i) inst.AddFact(s, {i, i + 1});
    Instance got = CompiledProgram(*pr.program).Eval(inst);
    EXPECT_GT(got.NumRows(*vocab->FindPredicate("W")), 4u);
    ExpectSameFactSet(NaiveFpEval(*pr.program, inst), got);
  }
  // One atom with 65,537 distinct variables (positions past 255, slots
  // past 65,535, a frame past 64 ElemIds) and a 20-ary head over its
  // first and last ten variables, seated by a recursive rule whose wide
  // atom then runs as a 20-position probe.
  {
    constexpr uint32_t kWide = 65537;
    auto vocab = MakeVocabulary();
    const PredId big = vocab->AddPredicate("Big", kWide);
    const PredId h = vocab->AddPredicate("H", 20);
    std::vector<VarId> all(kWide);
    for (VarId v = 0; v < kWide; ++v) all[v] = v;
    std::vector<VarId> ends(all.begin(), all.begin() + 10);
    ends.insert(ends.end(), all.end() - 10, all.end());
    std::vector<VarId> swapped = ends;
    std::swap(swapped[0], swapped[1]);
    Rule base;
    for (VarId v = 0; v < kWide; ++v) {
      base.var_names.push_back("v" + std::to_string(v));
    }
    Rule rec = base;
    base.head = QAtom(h, ends);
    base.body = {QAtom(big, all)};
    rec.head = QAtom(h, swapped);
    rec.body = {QAtom(h, ends), QAtom(big, all)};
    Program program(vocab);
    program.AddRule(std::move(base));
    program.AddRule(std::move(rec));
    Instance inst(vocab);
    inst.EnsureElements(50);
    for (ElemId t = 1; t <= 3; ++t) {
      std::vector<ElemId> args(kWide);
      for (uint32_t i = 0; i < kWide; ++i) args[i] = (i * t + t) % 50;
      inst.AddFact(big, args);
    }
    Instance got = CompiledProgram(program).Eval(inst);
    EXPECT_EQ(got.NumRows(h), 6u);
    ExpectSameFactSet(NaiveFpEval(program, inst), got);
  }
}

TEST(EvalRegression, WarmKernelsMatchFresh) {
  auto vocab = MakeVocabulary();
  const PredId e = vocab->AddPredicate("E", 2);
  const PredId u = vocab->AddPredicate("U", 1);
  ParseResult pr = ParseProgram(R"(
    T(x,y) :- E(x,y).
    T(x,z) :- T(x,y), T(y,z).
    S(x,z) :- T(x,y), E(y,z), U(z).
  )",
                                vocab);
  ASSERT_TRUE(pr.ok()) << pr.error;
  const Program& program = *pr.program;
  // Below the planner's 64-fact gate (compile-time orders) and above it
  // (live statistics, re-planned as T grows).
  const Instance small = RandomInstance(vocab, {e, u}, 10, 30, 1);
  const Instance large = RandomInstance(vocab, {e, u}, 40, 120, 2);
  ASSERT_LT(small.num_facts(), 64u);
  ASSERT_GE(large.num_facts(), 64u);

  // One program evaluated on every input in turn, its kernel cache warm
  // from the runs before, against a fresh program with the same
  // statistics bound: same sequence, same counters, and a repeat Eval
  // on the warm program changes neither.
  CompiledProgram warm(program);
  std::optional<Stats> bound;
  auto check = [&](const Instance& input, const std::string& what) {
    CompiledProgram fresh(program);
    if (bound) fresh.BindStats(*bound);
    EvalStats want_stats;
    const Instance want = fresh.Eval(input, &want_stats);
    for (int run = 0; run < 2; ++run) {
      const std::string tag = what + " run " + std::to_string(run);
      EvalStats got_stats;
      ExpectSameSequence(want, warm.Eval(input, &got_stats), tag);
      EXPECT_EQ(got_stats.iterations, want_stats.iterations) << tag;
      EXPECT_EQ(got_stats.facts_derived, want_stats.facts_derived) << tag;
      EXPECT_EQ(got_stats.join_probes, want_stats.join_probes) << tag;
      EXPECT_EQ(got_stats.replans, want_stats.replans) << tag;
    }
    return want_stats;
  };
  check(small, "small");
  EXPECT_GT(check(large, "large").replans, 0u);
  check(small, "small after large");
  bound = Stats::Collect(large);
  warm.BindStats(*bound);
  check(small, "small after BindStats");
  check(large, "large after BindStats");
}

// ---------- The library starts no thread --------------------------------

// Entries of /proc/self/task: one per thread of this process.
auto ThreadCount() {
  std::filesystem::directory_iterator tasks("/proc/self/task");
  return std::distance(begin(tasks), end(tasks));
}

TEST(EvalRegression, LibraryStartsNoThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  // A fixpoint at default options: the Thm 7 rewriting over the view
  // image of an 8-diamond chain.
  Thm7Gadget gadget = BuildThm7();
  DatalogQuery rewriting = InverseRulesRewriting(gadget.query, gadget.views);
  Instance image = gadget.views.Image(gadget.DiamondChain(8));
  Instance fix = FpEval(rewriting.program, image);
  EXPECT_EQ(fix.NumRows(rewriting.goal), 1u);
  EXPECT_EQ(ThreadCount(), 1) << "after FpEval";

  // A materialized view fixpoint and one maintenance batch.
  MaintainedImage maintained(gadget.views, gadget.DiamondChain(8));
  EXPECT_EQ(ThreadCount(), 1) << "after MaintainedImage";
  maintained.ApplyDelta({}, {maintained.base().FactAt(0)});
  EXPECT_EQ(ThreadCount(), 1) << "after ApplyDelta";

  // A Thm 5 decision.
  PathPlusU f = MakePathPlusU(MakeVocabulary(), 2);
  EXPECT_TRUE(CheckCqOverDatalogViews(f.query, f.views).determined);
  EXPECT_EQ(ThreadCount(), 1) << "after CheckCqOverDatalogViews";
}

}  // namespace
}  // namespace mondet
