#include <gtest/gtest.h>

#include "core/separator.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "reductions/thm7.h"
#include "tests/test_util.h"

namespace mondet {
namespace {

DatalogQuery MustParseQuery(const std::string& text, const std::string& goal,
                            const VocabularyPtr& vocab) {
  std::string error;
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(text, goal, vocab, &diags);
  EXPECT_TRUE(q.has_value()) << FormatDiagnostics(diags);
  return *q;
}

struct ReachSetup {
  VocabularyPtr vocab = MakeVocabulary();
  DatalogQuery query;
  ViewSet views;
  PredId r, u;

  ReachSetup()
      : query(MustParseQuery(R"(
          P(x) :- U(x).
          P(x) :- R(x,y), P(y).
          Goal() :- P(x).
        )",
                             "Goal", vocab)),
        views(vocab),
        r(*vocab->FindPredicate("R")),
        u(*vocab->FindPredicate("U")) {
    views.AddAtomicView("VR", r);
    views.AddAtomicView("VU", u);
  }
};

TEST(NpSeparator, AcceptsTrueImages) {
  ReachSetup setup;
  Instance inst = MakePath(setup.vocab, setup.r, 3);
  inst.AddFact(setup.u, {3});
  EXPECT_TRUE(DatalogHoldsOn(setup.query, inst));
  Instance image = setup.views.Image(inst);
  EXPECT_TRUE(NpSeparatorAccepts(setup.query, setup.views, image, 6));
}

TEST(NpSeparator, RejectsFalseImages) {
  ReachSetup setup;
  Instance inst = MakePath(setup.vocab, setup.r, 3);  // no U: query false
  Instance image = setup.views.Image(inst);
  EXPECT_FALSE(NpSeparatorAccepts(setup.query, setup.views, image, 6));
}

TEST(NpSeparator, QuotientsMatter) {
  // Query true only on a cycle: the expansion is a long path; only its
  // quotient maps into the cyclic image.
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    P(x) :- U(x).
    P(x) :- R(x,y), P(y).
    Goal() :- P(x).
  )",
                                  "Goal", vocab);
  ViewSet views(vocab);
  PredId r = *vocab->FindPredicate("R");
  PredId u = *vocab->FindPredicate("U");
  views.AddAtomicView("VR", r);
  views.AddAtomicView("VU", u);
  Instance cycle = MakeCycle(vocab, r, 3);
  cycle.AddFact(u, {0});
  Instance image = views.Image(cycle);
  EXPECT_TRUE(NpSeparatorAccepts(q, views, image, 4));
}

TEST(ChaseSeparator, CqViewsCertainAnswerSeparator) {
  ReachSetup setup;
  Instance yes = MakePath(setup.vocab, setup.r, 2);
  yes.AddFact(setup.u, {2});
  EXPECT_TRUE(
      ChaseSeparatorAccepts(setup.query, setup.views, setup.views.Image(yes), 3));
  Instance no = MakePath(setup.vocab, setup.r, 2);
  EXPECT_FALSE(
      ChaseSeparatorAccepts(setup.query, setup.views, setup.views.Image(no), 3));
}

TEST(ChaseSeparator, UcqViewChoicesAreConjunctive) {
  // A UCQ view with two disjuncts: certain acceptance requires Q to hold
  // under EVERY inverse choice.
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery("Q() :- U(x).", "Q", vocab);
  std::string error;
  ParseResult def = ParseProgram("V(x) :- U(x).\nV(x) :- M(x).", vocab);
  ASSERT_TRUE(def.ok());
  ViewSet views(vocab);
  PredId v = views.AddView("V", DatalogQuery(std::move(*def.program),
                                             *vocab->FindPredicate("V")));
  Instance j(vocab);
  ElemId a = j.AddElement();
  j.AddFact(v, {a});
  // V(a) could come from U(a) or M(a): Q is not certain.
  EXPECT_FALSE(ChaseSeparatorAccepts(q, views, j, 3));
  // A query satisfied under both choices is certain.
  DatalogQuery q2 = MustParseQuery("Q2() :- U(x).\nQ2() :- M(x).", "Q2", vocab);
  EXPECT_TRUE(ChaseSeparatorAccepts(q2, views, j, 3));
}

TEST(ChaseSeparator, CapKeepsFirstTestsInFactOrder) {
  // J = {V(a), V(b), VR(a,b)} over the two-disjunct view: four chase
  // witnesses, numbered with V(a)'s choice most significant (U before M).
  // `max_choices` tries only the first ones, so each query's answer flips
  // at its first failing witness: (U,M) fails "U(y)", (M,U) fails "U(x)",
  // (M,M) fails "U(x) anywhere".
  auto vocab = MakeVocabulary();
  ParseResult def = ParseProgram("V(x) :- U(x).\nV(x) :- M(x).", vocab);
  ASSERT_TRUE(def.ok());
  ViewSet views(vocab);
  PredId v = views.AddView("V", DatalogQuery(std::move(*def.program),
                                             *vocab->FindPredicate("V")));
  PredId vr = views.AddAtomicView("VR", vocab->AddPredicate("R", 2));
  Instance j(vocab);
  ElemId a = j.AddElement();
  ElemId b = j.AddElement();
  j.AddFact(v, {a});
  j.AddFact(v, {b});
  j.AddFact(vr, {a, b});
  struct Pin {
    const char* query;
    bool accepts[5];  // max_choices 0..4
  };
  const Pin pins[] = {
      {"Q() :- R(x,y), U(x).", {true, true, true, false, false}},
      {"Q() :- R(x,y), U(y).", {true, true, false, false, false}},
      {"Q() :- U(x).", {true, true, true, true, false}},
  };
  for (const Pin& pin : pins) {
    DatalogQuery q = MustParseQuery(pin.query, "Q", vocab);
    for (size_t cap = 0; cap < 5; ++cap) {
      EXPECT_EQ(ChaseSeparatorAccepts(q, views, j, 3, cap), pin.accepts[cap])
          << pin.query << " max_choices " << cap;
    }
  }
}

TEST(ChaseSeparator, Thm7DiamondChainsUnderSmallCaps) {
  // Marked chains stay accepted and unmarked ones rejected from the first
  // chase witness on; a cap of 0 tries none and accepts.
  Thm7Gadget gadget = BuildThm7();
  for (int n = 1; n <= 3; ++n) {
    for (bool marked : {true, false}) {
      Instance image = gadget.views.Image(gadget.DiamondChain(n, marked));
      EXPECT_TRUE(ChaseSeparatorAccepts(gadget.query, gadget.views, image, 2,
                                        /*max_choices=*/0));
      for (size_t cap : {1, 2, 3}) {
        EXPECT_EQ(ChaseSeparatorAccepts(gadget.query, gadget.views, image, 2,
                                        cap),
                  marked)
            << "n=" << n << " marked=" << marked << " max_choices " << cap;
      }
    }
  }
}

TEST(Separators, AgreeOnViewImages) {
  // On actual view images of small instances the NP- and chase-separators
  // agree with the query (they are separators).
  ReachSetup setup;
  for (unsigned seed = 0; seed < 15; ++seed) {
    Instance inst =
        RandomInstance(setup.vocab, {setup.r, setup.u}, 4, 6, 520 + seed);
    Instance image = setup.views.Image(inst);
    bool truth = DatalogHoldsOn(setup.query, inst);
    EXPECT_EQ(truth, NpSeparatorAccepts(setup.query, setup.views, image, 8))
        << "seed " << seed;
    EXPECT_EQ(truth,
              ChaseSeparatorAccepts(setup.query, setup.views, image, 3))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace mondet
