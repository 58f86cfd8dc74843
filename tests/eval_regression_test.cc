// Regression pins for the compiled semi-naive evaluator on the paper's
// gadget families (Figures 1–5) at small parameters. The golden values
// (iteration counts and output sizes) were captured from the evaluator on
// the seed-equivalent fixpoints; a change here means either the gadget
// construction or the evaluator's iteration structure changed — both are
// worth noticing. The last test guards that the library never starts a
// thread of its own.

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <vector>

#include "core/mondet_check.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "reductions/thm6.h"
#include "reductions/thm7.h"
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

  // Materialization and one maintenance batch.
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
