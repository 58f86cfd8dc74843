// MaintainedImage: the maintained view image must stay bit-identical to
// a from-scratch ViewSet::Image of the mutated base after every batch of
// a curated insert/delete schedule, and the monotonic-determinacy
// verdict re-checked through the maintained object must equal the
// verdict computed fresh — before, during, and after churn. Also covers
// ParseStream, the textual stream format feeding the CLI's `.stream`
// section.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/mondet_check.h"
#include "datalog/parser.h"
#include "views/maintained_image.h"
#include "views/view_set.h"

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
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(text, goal, vocab, &diags);
  EXPECT_TRUE(q.has_value()) << FormatDiagnostics(diags);
  return *q;
}

std::vector<Fact> SortedFacts(const Instance& inst) {
  std::vector<Fact> facts = inst.AllFacts();
  std::sort(facts.begin(), facts.end());
  return facts;
}

/// The headline contract: maintained image == recomputed image, as sets.
void ExpectImageFresh(const MaintainedImage& maintained,
                      const std::string& tag) {
  Instance fresh = maintained.FreshImage();
  EXPECT_EQ(maintained.image().num_elements(), fresh.num_elements()) << tag;
  EXPECT_EQ(SortedFacts(maintained.image()), SortedFacts(fresh)) << tag;
}

/// Curated fixture: recursive reachability query over a path, with two
/// atomic views and a recursive transitive-closure view (so schedules
/// drive both the counting and the DRed maintenance paths).
struct ReachFixture {
  VocabularyPtr vocab = MakeVocabulary();
  DatalogQuery query;
  ViewSet views;
  Instance base;
  PredId r = kNoPred, u = kNoPred;

  ReachFixture()
      : query(MustParseQuery(R"(
          P(x) :- U(x).
          P(x) :- R(x,y), P(y).
          Goal() :- P(x).
        )",
                             "Goal", vocab)),
        views(vocab),
        base(vocab) {
    r = *vocab->FindPredicate("R");
    u = *vocab->FindPredicate("U");
    views.AddAtomicView("VR", r);
    views.AddAtomicView("VU", u);
    std::vector<Diagnostic> diags;
    auto vt = ParseQuery(R"(
      VT0(x,y) :- R(x,y).
      VT0(x,z) :- R(x,y), VT0(y,z).
    )",
                         "VT0", vocab, &diags);
    EXPECT_TRUE(vt.has_value()) << FormatDiagnostics(diags);
    views.AddView("VT", *vt);
    // Path a -> b -> c, U(c): the query holds.
    ElemId a = base.AddElement("a"), b = base.AddElement("b"),
           c = base.AddElement("c");
    base.AddFact(r, {a, b});
    base.AddFact(r, {b, c});
    base.AddFact(u, {c});
  }
};

TEST(MaintainedImage, MatchesFreshImageAfterEveryBatch) {
  ReachFixture fx;
  MaintainedImage maintained(fx.views, fx.base);
  ExpectImageFresh(maintained, "initial");
  ElemId a = 0, b = 1, c = 2;
  ElemId d = maintained.AddElement("d");

  // Extend the chain (duplicate insert is legal in a raw batch).
  ImageDelta grow = maintained.ApplyDelta(
      {Fact(fx.r, {c, d}), Fact(fx.u, {d}), Fact(fx.r, {c, d})}, {});
  ExpectImageFresh(maintained, "grow");
  EXPECT_TRUE(maintained.base().HasFact(fx.r, {c, d}));
  // VR(c,d), VU(d), and the new VT pairs ending in d all appear.
  EXPECT_EQ(grow.inserts.size(), 5u);
  EXPECT_TRUE(grow.deletes.empty());

  // Cut the chain at b: every VT path through the edge disappears, via
  // the DRed overdelete/rederive cycle.
  ImageDelta cut = maintained.ApplyDelta({}, {Fact(fx.r, {b, c})});
  ExpectImageFresh(maintained, "cut");
  EXPECT_FALSE(maintained.base().HasFact(fx.r, {b, c}));
  EXPECT_TRUE(cut.inserts.empty());
  EXPECT_GT(cut.deletes.size(), 0u);
  EXPECT_GT(cut.overdeleted, 0u);

  // Rewire through a fresh element: the cut paths come back, longer.
  ElemId e = maintained.AddElement("e");
  ImageDelta rewire = maintained.ApplyDelta(
      {Fact(fx.r, {b, e}), Fact(fx.r, {e, c})}, {});
  ExpectImageFresh(maintained, "rewire");
  EXPECT_GT(rewire.inserts.size(), 0u);

  // No-op churn: delete an absent fact; insert+delete of the same fact
  // in one batch is an insert (new base = (old \ del) ∪ ins).
  ImageDelta churn = maintained.ApplyDelta(
      {Fact(fx.u, {a})}, {Fact(fx.r, {a, a}), Fact(fx.u, {a})});
  ExpectImageFresh(maintained, "churn");
  EXPECT_TRUE(maintained.base().HasFact(fx.u, {a}));
  ASSERT_EQ(churn.inserts.size(), 1u);
  EXPECT_EQ(churn.inserts.front().pred, *fx.vocab->FindPredicate("VU"));

  // Drain the base entirely: the image must follow it down to empty.
  std::vector<Fact> all = maintained.base().AllFacts();
  ImageDelta drain = maintained.ApplyDelta({}, all);
  ExpectImageFresh(maintained, "drain");
  EXPECT_EQ(maintained.image().num_facts(), 0u);
  EXPECT_TRUE(drain.inserts.empty());
}

TEST(MaintainedImage, VerdictOverMaintainedViewsEqualsFresh) {
  ReachFixture fx;
  MonDetResult before = CheckMonotonicDeterminacy(fx.query, fx.views);
  MaintainedImage maintained(fx.views, fx.base);
  EXPECT_EQ(maintained.RecheckVerdict(fx.query).verdict, before.verdict);

  // Churn the data; the verdict is a property of query + view
  // definitions, so the re-check must agree with a fresh run after any
  // schedule.
  ElemId d = maintained.AddElement("d");
  maintained.ApplyDelta({Fact(fx.r, {2, d})}, {Fact(fx.r, {0, 1})});
  ExpectImageFresh(maintained, "churned");
  MonDetResult after = maintained.RecheckVerdict(fx.query);
  EXPECT_EQ(after.verdict, before.verdict);
  EXPECT_EQ(after.verdict,
            CheckMonotonicDeterminacy(fx.query, fx.views).verdict);

  // The options overload reaches the same checker.
  MonDetOptions opts;
  EXPECT_EQ(maintained.RecheckVerdict(fx.query, opts).verdict,
            before.verdict);
}

TEST(MaintainedImage, NotDeterminedStaysNotDeterminedUnderChurn) {
  // Lossy views (the join of R and S is not exposed): kNotDetermined,
  // and churning the instance cannot change a static verdict.
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery("Q() :- R(x,y), S(y).", "Q", vocab);
  ViewSet views(vocab);
  views.AddCqView("VR", MustParseCq("VR(x) :- R(x,y).", vocab));
  views.AddCqView("VS", MustParseCq("VS(y) :- S(y).", vocab));
  PredId r = *vocab->FindPredicate("R"), s = *vocab->FindPredicate("S");

  Instance base(vocab);
  ElemId a = base.AddElement("a"), b = base.AddElement("b");
  base.AddFact(r, {a, b});

  MaintainedImage maintained(views, base);
  EXPECT_EQ(maintained.RecheckVerdict(q).verdict, Verdict::kNotDetermined);
  maintained.ApplyDelta({Fact(s, {b})}, {Fact(r, {a, b})});
  ExpectImageFresh(maintained, "churned");
  EXPECT_EQ(maintained.RecheckVerdict(q).verdict, Verdict::kNotDetermined);
}

TEST(ParseStream, BatchesElementsAndSigns) {
  auto vocab = MakeVocabulary();
  std::vector<Diagnostic> diags;
  auto base = ParseInstance("R(a,b). U(b).", vocab, &diags);
  ASSERT_TRUE(base.has_value()) << FormatDiagnostics(diags);
  PredId r = *vocab->FindPredicate("R"), u = *vocab->FindPredicate("U");

  auto stream = ParseStream(R"(
# one batch per non-empty line
+R(b,c). -U(b).
-R(a,b). +U(c). +R(b,c).
)",
                            vocab, *base, &diags);
  ASSERT_TRUE(stream.has_value()) << FormatDiagnostics(diags);
  // `c` is the only name the base does not know; it gets the next id.
  ASSERT_EQ(stream->new_elements, std::vector<std::string>{"c"});
  ElemId c = static_cast<ElemId>(base->num_elements());

  ASSERT_EQ(stream->batches.size(), 2u);
  const StreamBatch& b0 = stream->batches[0];
  EXPECT_EQ(b0.line, 3);
  // Elements a/b resolve to the base's like-named elements (a=0, b=1).
  EXPECT_EQ(b0.inserts, std::vector<Fact>{Fact(r, {1, c})});
  EXPECT_EQ(b0.deletes, std::vector<Fact>{Fact(u, {1})});
  const StreamBatch& b1 = stream->batches[1];
  EXPECT_EQ(b1.line, 4);
  EXPECT_EQ(b1.inserts, (std::vector<Fact>{Fact(u, {c}), Fact(r, {1, c})}));
  EXPECT_EQ(b1.deletes, std::vector<Fact>{Fact(r, {0, 1})});
}

TEST(ParseStream, RejectsMalformedInput) {
  struct Case {
    const char* text;
    const char* check;
    int line;
  };
  for (const Case& c : std::vector<Case>{
           {"R(a,b).", "parse", 1},          // missing sign
           {"+R(a,b)", "parse", 1},          // missing '.'
           {"\n+R(a,).", "parse", 2},        // missing element
           {"+R(a,b).\n+R(a).", "arity", 2}  // arity clash
       }) {
    auto vocab = MakeVocabulary();
    Instance base(vocab);
    std::vector<Diagnostic> diags;
    EXPECT_FALSE(ParseStream(c.text, vocab, base, &diags).has_value())
        << c.text;
    ASSERT_EQ(diags.size(), 1u) << c.text;
    EXPECT_EQ(diags[0].check, c.check) << c.text;
    EXPECT_EQ(diags[0].loc.line, c.line) << c.text;
  }
}

}  // namespace
}  // namespace mondet
