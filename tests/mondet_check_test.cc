#include <gtest/gtest.h>

#include "core/mondet_check.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "reductions/thm6.h"
#include "tests/test_util.h"

namespace mondet {
namespace {

CQ MustParseCq(const std::string& text, const VocabularyPtr& vocab) {
  std::string error;
  auto cq = ParseCq(text, vocab, &error);
  EXPECT_TRUE(cq.has_value()) << error;
  return *cq;
}

DatalogQuery MustParseQuery(const std::string& text, const std::string& goal,
                            const VocabularyPtr& vocab) {
  std::string error;
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(text, goal, vocab, &diags);
  EXPECT_TRUE(q.has_value()) << FormatDiagnostics(diags);
  return *q;
}

TEST(MonDetCqCq, DeterminedPathQuery) {
  // Q() = ∃xyz R(x,y),R(y,z); views expose R-pairs-of-length-2 and the
  // query is their boolean projection: determined.
  auto vocab = MakeVocabulary();
  CQ q = MustParseCq("Q() :- R(x,y), R(y,z).", vocab);
  ViewSet views(vocab);
  views.AddCqView("V", MustParseCq("V(x,z) :- R(x,y), R(y,z).", vocab));
  MonDetResult result =
      CheckMonotonicDeterminacy(CqAsDatalog(q, "G"), views);
  EXPECT_EQ(result.verdict, Verdict::kDetermined);
}

TEST(MonDetCqCq, NotDeterminedProjectionLosesJoin) {
  // Q() = ∃xy R(x,y),S(y); views only expose R and S separately projected
  // — the join is lost.
  auto vocab = MakeVocabulary();
  CQ q = MustParseCq("Q() :- R(x,y), S(y).", vocab);
  ViewSet views(vocab);
  views.AddCqView("VR", MustParseCq("VR(x) :- R(x,y).", vocab));
  views.AddCqView("VS", MustParseCq("VS(y) :- S(y).", vocab));
  MonDetResult result =
      CheckMonotonicDeterminacy(CqAsDatalog(q, "G"), views);
  EXPECT_EQ(result.verdict, Verdict::kNotDetermined);
  ASSERT_TRUE(result.failure.has_value());
  // The failing test witnesses: approximation satisfies Q, D' does not.
  EXPECT_TRUE(DatalogHoldsOn(CqAsDatalog(q, "G2"), result.failure->approximation.inst));
  EXPECT_FALSE(DatalogHoldsOn(CqAsDatalog(q, "G3"), result.failure->dprime));
}

TEST(MonDetCqCq, AtomicViewsAlwaysDetermined) {
  auto vocab = MakeVocabulary();
  CQ q = MustParseCq("Q() :- R(x,y), R(y,x).", vocab);
  ViewSet views(vocab);
  views.AddAtomicView("VR", *vocab->FindPredicate("R"));
  MonDetResult result =
      CheckMonotonicDeterminacy(CqAsDatalog(q, "G"), views);
  EXPECT_EQ(result.verdict, Verdict::kDetermined);
}

TEST(MonDetUcqUcq, DeterminedUnion) {
  auto vocab = MakeVocabulary();
  std::string error;
  auto ucq = ParseUcq("Q() :- R(x,y).\nQ() :- S(x).", vocab, &error);
  ASSERT_TRUE(ucq) << error;
  ViewSet views(vocab);
  views.AddAtomicView("VR", *vocab->FindPredicate("R"));
  views.AddAtomicView("VS", *vocab->FindPredicate("S"));
  MonDetResult result =
      CheckMonotonicDeterminacy(UcqAsDatalog(*ucq, "G"), views);
  EXPECT_EQ(result.verdict, Verdict::kDetermined);
}

TEST(MonDetRecursive, ReachOverEdgeViewsBoundedVerdict) {
  // Recursive query over atomic views: determined, but the enumerator can
  // only certify up to its bounds.
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    P(x) :- U(x).
    P(x) :- R(x,y), P(y).
    Goal() :- P(x).
  )",
                                  "Goal", vocab);
  ViewSet views(vocab);
  views.AddAtomicView("VR", *vocab->FindPredicate("R"));
  views.AddAtomicView("VU", *vocab->FindPredicate("U"));
  MonDetResult result = CheckMonotonicDeterminacy(q, views);
  EXPECT_EQ(result.verdict, Verdict::kUnknownBounded);
  EXPECT_FALSE(result.failure.has_value());
  EXPECT_GT(result.tests_run, 0u);
}

TEST(MonDetRecursive, ReachWithHiddenMarkRefuted) {
  // Hide U behind a lossy view: not determined, and the refuter finds it.
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    P(x) :- U(x), M(x).
    P(x) :- R(x,y), P(y).
    Goal() :- P(x).
  )",
                                  "Goal", vocab);
  ViewSet views(vocab);
  views.AddAtomicView("VR", *vocab->FindPredicate("R"));
  views.AddCqView("VU", MustParseCq("VU(x) :- U(x).", vocab));
  // M is invisible: the U∧M base case cannot be reconstructed.
  MonDetResult result = CheckMonotonicDeterminacy(q, views);
  EXPECT_EQ(result.verdict, Verdict::kNotDetermined);
}

TEST(MonDetRecursive, ViewWithoutExpansionsWithinDepthBuildsNoTest) {
  // V needs two unfoldings: at view_depth 1 its image fact has no
  // expansion, so the block holds no test and the verdict is bounded.
  for (int view_depth : {1, 2}) {
    auto vocab = MakeVocabulary();
    DatalogQuery q = MustParseQuery("Goal() :- R(x,y).", "Goal", vocab);
    ViewSet views(vocab);
    views.AddView("VV", MustParseQuery("V(x) :- W(x).\nW(x) :- R(x,y).",
                                       "V", vocab));
    MonDetOptions options;
    options.view_depth = view_depth;
    MonDetResult r = CheckMonotonicDeterminacy(q, views, options);
    EXPECT_EQ(r.verdict, view_depth == 1 ? Verdict::kUnknownBounded
                                         : Verdict::kDetermined);
    EXPECT_EQ(r.tests_run, view_depth == 1 ? 0u : 1u);
    EXPECT_EQ(r.expansions_tried, 1u);
  }
}

TEST(MonDetRecursive, DeepNonRecursiveViewNotExhaustedBelowItsDepth) {
  // V(x) also holds through the chain A1..A5 down to B: a non-recursive
  // definition over six IDBs, so its expansions reach depth 6. The one
  // test at the default view_depth 4 passes (it only sees V's C branch),
  // which proves nothing; at depth 7 the B branch refutes.
  for (int view_depth : {4, 7}) {
    auto vocab = MakeVocabulary();
    DatalogQuery q = MustParseQuery("Q() :- C(x).", "Q", vocab);
    ViewSet views(vocab);
    views.AddView("VV", MustParseQuery(R"(
      V(x) :- C(x).
      V(x) :- A1(x).
      A1(x) :- A2(x).
      A2(x) :- A3(x).
      A3(x) :- A4(x).
      A4(x) :- A5(x).
      A5(x) :- B(x).
    )",
                                       "V", vocab));
    MonDetOptions options;
    options.view_depth = view_depth;
    MonDetResult r = CheckMonotonicDeterminacy(q, views, options);
    if (view_depth == 4) {
      EXPECT_EQ(r.verdict, Verdict::kUnknownBounded);
      EXPECT_EQ(r.tests_run, 1u);
    } else {
      EXPECT_EQ(r.verdict, Verdict::kNotDetermined);
      ASSERT_TRUE(r.failure.has_value());
      EXPECT_EQ(r.failure->dprime.DebugString(), "{B(e0)}");
    }
  }
}

TEST(MonDetRecursive, ZeroTestCapBuildsNoTest) {
  // Q's one approximation has an empty view image: one test in the
  // product, none within a cap of 0.
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery("Goal() :- R(x,y).", "Goal", vocab);
  ViewSet views(vocab);
  views.AddAtomicView("VU", vocab->AddPredicate("U", 1));
  MonDetOptions options;
  options.max_tests_per_expansion = 0;
  MonDetResult r = CheckMonotonicDeterminacy(q, views, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknownBounded);
  EXPECT_EQ(r.tests_run, 0u);
  EXPECT_EQ(r.evaluations, 0u);
  options.max_tests_per_expansion = 1;
  r = CheckMonotonicDeterminacy(q, views, options);
  EXPECT_EQ(r.verdict, Verdict::kNotDetermined);
  EXPECT_EQ(r.tests_run, 1u);
}

// --- Pinned results of the canonical-test walk -----------------------------
// Verdict, tests_run, expansions_tried and the counterexample D' equal
// those of the test-by-test scan the pruned walk replaced (one Eval per
// test); `evaluations` pins the walk's own work.

struct CheckPin {
  Verdict verdict;
  size_t tests_run;
  size_t expansions_tried;
  size_t evaluations;
  /// The counterexample D' (element count and DebugString); "" if none.
  size_t dprime_elements;
  std::string dprime;
};

void ExpectPin(const MonDetResult& r, const CheckPin& pin) {
  EXPECT_EQ(r.verdict, pin.verdict);
  EXPECT_EQ(r.tests_run, pin.tests_run);
  EXPECT_EQ(r.expansions_tried, pin.expansions_tried);
  EXPECT_EQ(r.evaluations, pin.evaluations);
  ASSERT_EQ(r.failure.has_value(), !pin.dprime.empty());
  if (r.failure) {
    EXPECT_EQ(r.failure->dprime.num_elements(), pin.dprime_elements);
    EXPECT_EQ(r.failure->dprime.DebugString(), pin.dprime);
  }
}

/// The MDL/MDL+CQ pair of bench_table2 and perfbench `check`, with the
/// latter's options.
MonDetResult CheckMdlMdlCq(int depth) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    P(x) :- U(x).
    P(x) :- R(x,y), P(y).
    Goal() :- P(x).
  )",
                                  "Goal", vocab);
  ViewSet views(vocab);
  views.AddView("VReach",
                MustParseQuery("VP(x) :- U(x).\nVP(x) :- R(x,y), VP(y).",
                               "VP", vocab));
  views.AddAtomicView("VR", *vocab->FindPredicate("R"));
  MonDetOptions options;
  options.query_depth = depth;
  options.view_depth = depth;
  options.max_query_expansions = 100;
  options.max_tests_per_expansion = 2000;
  return CheckMonotonicDeterminacy(q, views, options);
}

MonDetResult CheckThm6(bool solvable, int query_depth,
                       size_t max_query_expansions,
                       size_t max_tests_per_expansion) {
  Thm6Gadget g = BuildThm6(solvable ? SolvableTilingProblem()
                                    : UnsolvableTilingProblem());
  MonDetOptions options;
  options.query_depth = query_depth;
  options.view_depth = 3;
  options.max_query_expansions = max_query_expansions;
  options.max_tests_per_expansion = max_tests_per_expansion;
  return CheckMonotonicDeterminacy(g.query, g.views, options);
}

TEST(CheckPins, MdlMdlCq) {
  ExpectPin(CheckMdlMdlCq(5), {Verdict::kUnknownBounded, 780, 4, 24, 0, ""});
  ExpectPin(CheckMdlMdlCq(6), {Verdict::kUnknownBounded, 3554, 5, 31, 0, ""});
}

TEST(CheckPins, Thm6WithTable2Options) {
  // BM_T2_MdlUcq_Undecidable's options.
  ExpectPin(CheckThm6(/*solvable=*/true, 4, 40, 3000),
            {Verdict::kNotDetermined, 3474, 2, 121, 12,
             "{XProj(e1,e6), T0(e6), YProj(e4,e6), XProj(e1,e7), T1(e7), "
             "YProj(e5,e7), XProj(e2,e8), T1(e8), YProj(e4,e8), "
             "XProj(e2,e9), T0(e9), YProj(e5,e9), XProj(e3,e10), T0(e10), "
             "YProj(e4,e10), XProj(e3,e11), T1(e11), YProj(e5,e11), "
             "YSucc(e0,e4), YSucc(e4,e5), XSucc(e0,e1), XSucc(e1,e2), "
             "XSucc(e2,e3), YEnd(e5), XEnd(e3)}"});
  ExpectPin(CheckThm6(/*solvable=*/false, 4, 40, 3000),
            {Verdict::kUnknownBounded, 694, 14, 154, 0, ""});
}

TEST(CheckPins, Thm6WithTilingReductionOptions) {
  // examples/tiling_reduction.cpp's options.
  ExpectPin(CheckThm6(/*solvable=*/true, 5, 60, 5000),
            {Verdict::kNotDetermined, 14265, 3, 386, 15,
             "{XProj(e1,e7), T0(e7), YProj(e5,e7), XProj(e1,e8), T1(e8), "
             "YProj(e6,e8), XProj(e2,e9), T1(e9), YProj(e5,e9), "
             "XProj(e2,e10), T0(e10), YProj(e6,e10), XProj(e3,e11), "
             "T0(e11), YProj(e5,e11), XProj(e3,e12), T1(e12), "
             "YProj(e6,e12), XProj(e4,e13), T1(e13), YProj(e5,e13), "
             "XProj(e4,e14), T0(e14), YProj(e6,e14), YSucc(e0,e5), "
             "YSucc(e5,e6), XSucc(e0,e1), XSucc(e1,e2), XSucc(e2,e3), "
             "XSucc(e3,e4), YEnd(e6), XEnd(e4)}"});
  ExpectPin(CheckThm6(/*solvable=*/false, 5, 60, 5000),
            {Verdict::kUnknownBounded, 14430, 21, 367, 0, ""});
}

TEST(CheckPins, NonBooleanFrontierLost) {
  // NonBooleanMonDet.FrontierLostRefuted's input: the answer variable is
  // invisible in the view.
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery("Q(x) :- R(x,y).", "Q", vocab);
  ViewSet views(vocab);
  views.AddCqView("V", MustParseCq("V(y) :- R(x,y).", vocab));
  MonDetResult r = CheckMonotonicDeterminacy(q, views);
  ExpectPin(r, {Verdict::kNotDetermined, 1, 1, 1, 3, "{R(e2,e1)}"});
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->approximation.frontier, std::vector<ElemId>{0});
}

TEST(Thm5, CqOverRecursiveViewsDetermined) {
  // Q = ∃x,y R(x,y) with a view exposing R: determined; decided exactly
  // by the Thm 5 automata procedure.
  auto vocab = MakeVocabulary();
  CQ q = MustParseCq("Q() :- R(x,y).", vocab);
  ViewSet views(vocab);
  views.AddAtomicView("VR", *vocab->FindPredicate("R"));
  Thm5Result result = CheckCqOverDatalogViews(q, views);
  EXPECT_TRUE(result.determined);
  EXPECT_GT(result.pairs_explored, 0u);
}

TEST(Thm5, CqOverReachabilityViewDeterminedDespiteRecursion) {
  // View = transitive reachability into U; query asks for a direct edge
  // into U. Every Reach-witness ends with a direct edge into U, so the
  // query IS monotonically determined — and the automata procedure sees
  // it through the recursion.
  auto vocab = MakeVocabulary();
  CQ q = MustParseCq("Q() :- R(x,y), U(y).", vocab);
  std::string error;
  std::vector<Diagnostic> diags;
  auto def = ParseQuery(R"(
    Reach(x) :- R(x,y), U(y).
    Reach(x) :- R(x,y), Reach(y).
  )",
                        "Reach", vocab, &diags);
  ASSERT_TRUE(def) << FormatDiagnostics(diags);
  ViewSet views(vocab);
  views.AddView("VReach", *def);
  Thm5Result result = CheckCqOverDatalogViews(q, views);
  EXPECT_TRUE(result.determined);
}

TEST(Thm5, CqTwoHopOverHasEdgeViewNotDetermined) {
  // Query = a 2-hop path; view = "has an outgoing chain" (recursive):
  // the image forgets how chains connect, so Q is not determined.
  auto vocab = MakeVocabulary();
  CQ q = MustParseCq("Q() :- R(x,y), R(y,z).", vocab);
  std::string error;
  std::vector<Diagnostic> diags;
  auto def = ParseQuery(R"(
    W(x) :- R(x,y).
    W(x) :- R(x,y), W(y).
  )",
                        "W", vocab, &diags);
  ASSERT_TRUE(def) << FormatDiagnostics(diags);
  ViewSet views(vocab);
  views.AddView("VW", *def);
  Thm5Result result = CheckCqOverDatalogViews(q, views);
  EXPECT_FALSE(result.determined);
  ASSERT_TRUE(result.counterexample.has_value());
  // The counterexample decodes to a test instance where Q fails.
  Instance decoded = result.counterexample->Decode(vocab);
  UCQ as_ucq(vocab);
  as_ucq.AddDisjunct(q);
  EXPECT_FALSE(as_ucq.HoldsOn(decoded));
}

TEST(Thm5, CqOverRecursiveViewDetermined) {
  // Query = "some element reaches U in one R-step or is in U"? Use a
  // query that IS expressible: Q() = ∃x U(x), view VU(x) ← U(x) plus a
  // recursive view; determined since VU pins U down.
  auto vocab = MakeVocabulary();
  CQ q = MustParseCq("Q() :- U(x).", vocab);
  std::string error;
  std::vector<Diagnostic> diags;
  auto def = ParseQuery(R"(
    Reach(x) :- R(x,y), U(y).
    Reach(x) :- R(x,y), Reach(y).
  )",
                        "Reach", vocab, &diags);
  ASSERT_TRUE(def) << FormatDiagnostics(diags);
  ViewSet views(vocab);
  views.AddView("VReach", *def);
  views.AddCqView("VU", MustParseCq("VU(x) :- U(x).", vocab));
  Thm5Result result = CheckCqOverDatalogViews(q, views);
  EXPECT_TRUE(result.determined);
}

TEST(Thm5, ManyViewAtomsFoldCorrectly) {
  // Regression: Q'' goal rules with more than two IDB atoms must be
  // folded without dropping children (the n=2 path query over VReach+VR
  // produces a 4-IDB-atom goal rule).
  PathPlusU f = MakePathPlusU(MakeVocabulary(), 2);
  // Every Reach-witness path combines with the exposed R-edges into a
  // 2-path ending in U: determined.
  Thm5Result result = CheckCqOverDatalogViews(f.query, f.views);
  EXPECT_TRUE(result.determined);
}

TEST(Thm5, RepeatedDecisionsOverOneVocabulary) {
  // Regression: Q'' is folded to two IDB atoms per rule with auxiliary
  // predicates named on the shared vocabulary. The n = 1..3 family folds
  // to different arities, which once gave one fold name two arities and
  // aborted the third decision. Repeating a decision reuses the same
  // predicates and repeats its counters; each matches a fresh vocabulary.
  auto vocab = MakeVocabulary();
  size_t preds_after_first_round = 0;
  for (int round = 0; round < 2; ++round) {
    for (int n = 1; n <= 3; ++n) {
      PathPlusU shared = MakePathPlusU(vocab, n);
      Thm5Result r = CheckCqOverDatalogViews(shared.query, shared.views);
      EXPECT_TRUE(r.determined) << "n=" << n;
      PathPlusU fresh = MakePathPlusU(MakeVocabulary(), n);
      Thm5Result f = CheckCqOverDatalogViews(fresh.query, fresh.views);
      EXPECT_EQ(r.pairs_explored, f.pairs_explored) << "n=" << n;
      EXPECT_EQ(r.transition_visits, f.transition_visits) << "n=" << n;
      EXPECT_EQ(r.macrostates_visited, f.macrostates_visited) << "n=" << n;
      EXPECT_EQ(r.subsumption_prunes, f.subsumption_prunes) << "n=" << n;
    }
    if (round == 0) preds_after_first_round = vocab->AllPredicates().size();
  }
  EXPECT_EQ(vocab->AllPredicates().size(), preds_after_first_round);
}

TEST(Thm5, AgreesWithCanonicalTestsOnCqCq) {
  // Cross-validation: on CQ/CQ inputs the Thm 5 decision agrees with the
  // exact canonical-test procedure.
  auto vocab = MakeVocabulary();
  struct Case {
    std::string query;
    std::string view;
  };
  std::vector<Case> cases = {
      {"Q() :- R(x,y), R(y,z).", "V(x,z) :- R(x,y), R(y,z)."},
      {"Q() :- R(x,y).", "V(x,z) :- R(x,y), R(y,z)."},
      {"Q() :- R(x,y), R(y,x).", "V(x,y) :- R(x,y)."},
      {"Q() :- R(x,x).", "V(x) :- R(x,x)."},
  };
  for (const Case& c : cases) {
    auto v = MakeVocabulary();
    CQ q = MustParseCq(c.query, v);
    ViewSet views(v);
    views.AddCqView("V", MustParseCq(c.view, v));
    Thm5Result thm5 = CheckCqOverDatalogViews(q, views);
    MonDetResult tests = CheckMonotonicDeterminacy(CqAsDatalog(q, "G"), views);
    ASSERT_NE(tests.verdict, Verdict::kUnknownBounded) << c.query;
    EXPECT_EQ(thm5.determined, tests.verdict == Verdict::kDetermined)
        << c.query << " / " << c.view;
  }
}

}  // namespace
}  // namespace mondet
