// MaintainedImage: the maintained view image must stay bit-identical to
// a from-scratch ViewSet::Image of the mutated base after every batch of
// a curated insert/delete schedule, and the monotonic-determinacy
// verdict over the maintained object's views must equal the verdict
// computed fresh — before, during, and after churn. Pins where
// Backward/Forward seeds its candidates (from each fact while it is
// still in the instance), its head-first join orders, rules wider than
// the kernel frame's stack buffer, and the exact fact and delta
// sequences of a churn-shaped write stream. Also covers ParseStream, the
// textual stream format feeding the CLI's `.stream` section.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/mondet_check.h"
#include "datalog/parser.h"
#include "testing/describe.h"
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
/// maintain non-recursive and recursive strata).
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

  // Cut the chain at b: every VT path through the edge disappears; the
  // backward search finds no other proof and disproves them.
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
  EXPECT_EQ(CheckMonotonicDeterminacy(fx.query, maintained.views()).verdict,
            before.verdict);

  // Churn the data; the verdict is a property of query + view
  // definitions, so the re-check must agree with a fresh run after any
  // schedule.
  ElemId d = maintained.AddElement("d");
  maintained.ApplyDelta({Fact(fx.r, {2, d})}, {Fact(fx.r, {0, 1})});
  ExpectImageFresh(maintained, "churned");
  EXPECT_EQ(CheckMonotonicDeterminacy(fx.query, maintained.views()).verdict,
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
  EXPECT_EQ(CheckMonotonicDeterminacy(q, maintained.views()).verdict,
            Verdict::kNotDetermined);
  maintained.ApplyDelta({Fact(s, {b})}, {Fact(r, {a, b})});
  ExpectImageFresh(maintained, "churned");
  EXPECT_EQ(CheckMonotonicDeterminacy(q, maintained.views()).verdict,
            Verdict::kNotDetermined);
}

/// Applies one normalized batch to `base`, maintains `m` through it and
/// checks `m` against a fresh Eval of the new base, as a fact set.
MaintainResult ApplyAndCheck(const CompiledProgram& compiled,
                             Instance& m, Instance& base,
                             std::vector<Fact> inserts,
                             std::vector<Fact> deletes,
                             const std::string& tag) {
  for (const Fact& f : inserts) EXPECT_TRUE(base.AddFact(f)) << tag;
  for (const Fact& f : deletes) EXPECT_TRUE(base.RemoveFact(f)) << tag;
  MaintainResult res =
      compiled.Maintain(m, base, FactDelta{std::move(inserts),
                                           std::move(deletes)});
  EXPECT_EQ(SortedFacts(m), SortedFacts(compiled.Eval(base))) << tag;
  return res;
}

/// One MaintainResult as text: every net insert and delete in order,
/// then the counters (facts disproved, and of those put back).
std::string ResultLine(const Instance& m, const MaintainResult& res) {
  std::string line;
  for (const Fact& f : res.inserts) line += "+" + FactToString(m, f);
  for (const Fact& f : res.deletes) line += "-" + FactToString(m, f);
  return line + " o=" + std::to_string(res.overdeleted) +
         " r=" + std::to_string(res.rederived);
}

// A joint insert and a joint delete of both body facts of H(a): each EDB
// delete seeds candidates while every EDB delete is still in the
// instance, so each seed finds the other fact, and H(a) is disproved and
// goes.
TEST(MaintainJoin, JointDeleteSeedsBeforeEitherGoes) {
  auto vocab = MakeVocabulary();
  ParseResult pr = ParseProgram("H(x) :- A(x), B(x).", vocab);
  ASSERT_TRUE(pr.ok()) << pr.error;
  const PredId a = *vocab->FindPredicate("A");
  const PredId b = *vocab->FindPredicate("B");
  const PredId h = *vocab->FindPredicate("H");
  CompiledProgram compiled(*pr.program);
  Instance base(vocab);
  const ElemId x = base.AddElement("a");
  Instance m = compiled.Eval(base);

  ApplyAndCheck(compiled, m, base, {Fact(a, {x}), Fact(b, {x})}, {},
                "insert");
  ApplyAndCheck(compiled, m, base, {}, {Fact(a, {x}), Fact(b, {x})},
                "delete");
  EXPECT_FALSE(m.HasFact(Fact(h, {x})));
}

// Backward/Forward seeds its candidates before the facts go: deleting
// A(a) and B(a) together must make T(a) a candidate (each seed finds the
// other fact, still in the instance), disprove it and with it T(b).
// Seeding each delete after the deletes went finds neither, checks
// nothing and keeps both rows.
TEST(MaintainJoin, CandidateSeedsSeeJointDeletes) {
  auto vocab = MakeVocabulary();
  ParseResult pr = ParseProgram(R"(
    T(x) :- A(x), B(x).
    T(y) :- T(x), E(x,y).
  )",
                                vocab);
  ASSERT_TRUE(pr.ok()) << pr.error;
  const PredId a = *vocab->FindPredicate("A");
  const PredId b = *vocab->FindPredicate("B");
  const PredId e = *vocab->FindPredicate("E");
  const PredId t = *vocab->FindPredicate("T");
  CompiledProgram compiled(*pr.program);
  Instance base(vocab);
  const ElemId x = base.AddElement("a"), y = base.AddElement("b");
  base.AddFact(a, {x});
  base.AddFact(b, {x});
  base.AddFact(e, {x, y});
  Instance m = compiled.Eval(base);
  ASSERT_EQ(m.NumRows(t), 2u);

  MaintainResult res = ApplyAndCheck(
      compiled, m, base, {}, {Fact(a, {x}), Fact(b, {x})}, "delete");
  EXPECT_EQ(m.NumRows(t), 0u);
  EXPECT_EQ(res.overdeleted, 2u);
  EXPECT_EQ(res.rederived, 0u);
}

// One fact serves twice in one derivation, so a seed that reads the
// instance must read it while that fact is still there:
//   - H(x) :- A(x,y), A(y,x). over A(a,a): deleting A(a,a) seeds H(a)
//     only if the join from the seat at A(x,y) still finds A(a,a) at
//     A(y,x);
//   - the same through a stratum, L(x,y) :- A(x,y). H(x) :- L(x,y),
//     L(y,x).: the disproved L(a,a) seeds H(a) only before it leaves.
// Either way H(a) stays behind when the fact goes before it seeds.
TEST(MaintainJoin, SeedsWhileTheFactIsStillThere) {
  for (const char* text :
       {"H(x) :- A(x,y), A(y,x).",
        "L(x,y) :- A(x,y).\nH(x) :- L(x,y), L(y,x)."}) {
    auto vocab = MakeVocabulary();
    ParseResult pr = ParseProgram(text, vocab);
    ASSERT_TRUE(pr.ok()) << pr.error;
    const PredId a = *vocab->FindPredicate("A");
    CompiledProgram compiled(*pr.program);
    Instance base(vocab);
    const ElemId x = base.AddElement("a");
    base.AddFact(a, {x, x});
    Instance m = compiled.Eval(base);

    MaintainResult res =
        ApplyAndCheck(compiled, m, base, {}, {Fact(a, {x, x})}, text);
    const bool layered = vocab->FindPredicate("L").has_value();
    EXPECT_EQ(ResultLine(m, res), layered ? "-A(a,a)-L(a,a)-H(a) o=2 r=0"
                                          : "-A(a,a)-H(a) o=1 r=0")
        << text;
  }
}

/// Reachability from Src over E.
struct ReachProgram {
  VocabularyPtr vocab = MakeVocabulary();
  PredId src = vocab->AddPredicate("Src", 1);
  PredId e = vocab->AddPredicate("E", 2);
  PredId reach = vocab->AddPredicate("Reach", 1);
  ParseResult pr = ParseProgram(R"(
    Reach(y) :- Src(y).
    Reach(y) :- E(x,y), Reach(x).
  )",
                                vocab);
};

// Backward/Forward hazard: a fact checked while its only support is an
// ancestor still being checked. Cutting s -> f makes Reach(f) the one
// candidate; its first derivation runs through g, whose only support is
// f itself, so Reach(g) is left checked and unproved. The second
// derivation, through h, proves Reach(f), and the forward chaining must
// then prove Reach(g) too, or it is disproved and lost.
TEST(MaintainJoin, CheckedFactProvedThroughItsAncestor) {
  ReachProgram rp;
  ASSERT_TRUE(rp.pr.ok()) << rp.pr.error;
  CompiledProgram compiled(*rp.pr.program);
  Instance base(rp.vocab);
  const ElemId s = base.AddElement("s"), f = base.AddElement("f"),
               g = base.AddElement("g"), h = base.AddElement("h");
  // E(g,f) is f's first in-edge in row order; the cut edge is E's last
  // row, so removing it moves no row.
  for (const Fact& fact :
       {Fact(rp.e, {g, f}), Fact(rp.e, {f, g}), Fact(rp.e, {s, h}),
        Fact(rp.e, {h, f}), Fact(rp.e, {s, f}), Fact(rp.src, {s})}) {
    base.AddFact(fact);
  }
  Instance m = compiled.Eval(base);
  ASSERT_EQ(m.NumRows(rp.reach), 4u);

  MaintainResult res =
      ApplyAndCheck(compiled, m, base, {}, {Fact(rp.e, {s, f})}, "cut");
  EXPECT_EQ(ResultLine(m, res), "-E(s,f) o=0 r=0");
}

// Backward/Forward hazard: a fact whose support an earlier top-level
// Check proved. Cutting s -> a and s -> b makes Reach(a), then Reach(b)
// candidates. The first Check proves Reach(a) through m; Reach(b)'s one
// derivation left runs through Reach(a), already proved and so never
// checked again: only the one-step test at the visit proves Reach(b).
TEST(MaintainJoin, SupportProvedByAnEarlierCheck) {
  ReachProgram rp;
  ASSERT_TRUE(rp.pr.ok()) << rp.pr.error;
  CompiledProgram compiled(*rp.pr.program);
  Instance base(rp.vocab);
  const ElemId s = base.AddElement("s"), a = base.AddElement("a"),
               b = base.AddElement("b"), mid = base.AddElement("m");
  for (const Fact& fact :
       {Fact(rp.e, {s, mid}), Fact(rp.e, {mid, a}), Fact(rp.e, {a, b}),
        Fact(rp.e, {s, a}), Fact(rp.e, {s, b}), Fact(rp.src, {s})}) {
    base.AddFact(fact);
  }
  Instance m = compiled.Eval(base);
  ASSERT_EQ(m.NumRows(rp.reach), 4u);

  MaintainResult res = ApplyAndCheck(
      compiled, m, base, {}, {Fact(rp.e, {s, a}), Fact(rp.e, {s, b})}, "cut");
  EXPECT_EQ(ResultLine(m, res), "-E(s,a)-E(s,b) o=0 r=0");
}

// Backward/Forward keeps its search off the call stack: over a chain
// 0 -> 1 -> ... -> n, cutting n-1 -> n next to the bypass n-2 -> n
// leaves Reach(n) one proof, n - 1 facts deep, and the search checks
// every one of them. Then the bypass goes too and Reach(n) is disproved.
TEST(MaintainJoin, DeepProofOffTheCallStack) {
  ReachProgram rp;
  ASSERT_TRUE(rp.pr.ok()) << rp.pr.error;
  CompiledProgram compiled(*rp.pr.program);
  constexpr ElemId n = 200000;
  Instance base(rp.vocab);
  base.EnsureElements(n + 1);
  for (ElemId i = 0; i < n; ++i) base.AddFact(rp.e, {i, i + 1});
  base.AddFact(rp.e, {n - 2, n});
  // Without a source nothing is reachable; inserting it derives the
  // chain in the continuation's delta rounds, one fact per round.
  Instance m = compiled.Eval(base);
  ASSERT_EQ(m.NumRows(rp.reach), 0u);
  ASSERT_TRUE(base.AddFact(rp.src, {0}));
  compiled.Maintain(m, base, FactDelta{{Fact(rp.src, {0})}, {}});
  ASSERT_EQ(m.NumRows(rp.reach), n + 1);

  const Fact cut(rp.e, {n - 1, n});
  ASSERT_TRUE(base.RemoveFact(cut));
  EvalStats stats;
  MaintainResult res = compiled.Maintain(m, base, FactDelta{{}, {cut}}, &stats);
  EXPECT_EQ(res.deletes, std::vector<Fact>{cut});
  EXPECT_TRUE(res.inserts.empty());
  EXPECT_EQ(res.overdeleted, 0u);
  EXPECT_EQ(m.NumRows(rp.reach), n + 1);
  // Every fact of the proof was visited: at least one probe each.
  EXPECT_GT(stats.join_probes, static_cast<size_t>(n));

  const Fact bypass(rp.e, {n - 2, n});
  ASSERT_TRUE(base.RemoveFact(bypass));
  res = compiled.Maintain(m, base, FactDelta{{}, {bypass}});
  EXPECT_EQ(res.deletes, (std::vector<Fact>{bypass, Fact(rp.reach, {n})}));
  EXPECT_EQ(res.overdeleted, 1u);
  EXPECT_EQ(m.NumRows(rp.reach), n);
}

// Maintain joins each seat in a greedy order over its bound variables,
// so the backward search, which binds the head, does not depend on the
// order a rule's body is written in. The probes are kernel probes: each
// probed bucket's size, plus one per membership probe. Two shapes that
// body order makes expensive:
//   - reachability with the recursive atom first, over a chain whose
//     last edge is cut next to a bypass: the proof of the last node runs
//     down the whole chain. Head first, each of its facts costs four
//     probes (its Src membership probe, its in-edge bucket and its
//     predecessor's membership probe in the check, its out-edge bucket in
//     the forward chaining); body order scans every Reach row per fact
//     instead, 31,991,999 probes at n = 4,000;
//   - a projection with fan-in, V(y) :- R(x,z), S(z,y).: head first, a
//     delete joins only the R rows of the deleted S fact's middle, as
//     derivation counting did (4,000 probes for 50 deletes); body order
//     scans every R row to check the V fact, 404,000 probes.
TEST(MaintainJoin, BackwardSearchJoinsHeadFirst) {
  {
    auto vocab = MakeVocabulary();
    const PredId src = vocab->AddPredicate("Src", 1);
    const PredId e = vocab->AddPredicate("E", 2);
    const PredId reach = vocab->AddPredicate("Reach", 1);
    ParseResult pr = ParseProgram(R"(
      Reach(y) :- Src(y).
      Reach(y) :- Reach(x), E(x,y).
    )",
                                  vocab);
    ASSERT_TRUE(pr.ok()) << pr.error;
    CompiledProgram compiled(*pr.program);
    constexpr ElemId n = 4000;  // nodes 0 .. n-1
    Instance base(vocab);
    base.EnsureElements(n);
    for (ElemId i = 0; i + 1 < n; ++i) base.AddFact(e, {i, i + 1});
    base.AddFact(e, {n - 3, n - 1});
    base.AddFact(src, {0});
    Instance m = compiled.Eval(base);
    ASSERT_EQ(m.NumRows(reach), n);

    const Fact cut(e, {n - 2, n - 1});
    ASSERT_TRUE(base.RemoveFact(cut));
    EvalStats stats;
    MaintainResult res =
        compiled.Maintain(m, base, FactDelta{{}, {cut}}, &stats);
    EXPECT_EQ(res.deletes, std::vector<Fact>{cut});
    EXPECT_TRUE(res.inserts.empty());
    EXPECT_EQ(res.overdeleted, 0u);
    EXPECT_EQ(m.NumRows(reach), n);
    EXPECT_LE(stats.join_probes, size_t{4} * n);
  }
  {
    auto vocab = MakeVocabulary();
    const PredId r = vocab->AddPredicate("R", 2);
    const PredId s = vocab->AddPredicate("S", 2);
    const PredId v = vocab->AddPredicate("V", 1);
    ParseResult pr = ParseProgram("V(y) :- R(x,z), S(z,y).", vocab);
    ASSERT_TRUE(pr.ok()) << pr.error;
    CompiledProgram compiled(*pr.program);
    // 50 middles z, each reached from the same 80 sources x and leading to
    // a y of its own: every V fact has 80 derivations.
    constexpr ElemId kFanIn = 80, kMiddles = 50;
    Instance base(vocab);
    base.EnsureElements(kFanIn + 2 * kMiddles);
    std::vector<Fact> s_facts;
    for (ElemId z = kFanIn; z < kFanIn + kMiddles; ++z) {
      for (ElemId x = 0; x < kFanIn; ++x) base.AddFact(r, {x, z});
      s_facts.emplace_back(s, std::vector<ElemId>{z, z + kMiddles});
      base.AddFact(s_facts.back());
    }
    Instance m = compiled.Eval(base);
    ASSERT_EQ(m.NumRows(v), kMiddles);

    // 50 one-fact deletes of S: each takes one V fact's derivations away.
    EvalStats stats;
    for (const Fact& f : s_facts) {
      ASSERT_TRUE(base.RemoveFact(f));
      MaintainResult res = compiled.Maintain(m, base, FactDelta{{}, {f}},
                                             &stats);
      EXPECT_EQ(res.deletes.size(), 2u);
    }
    EXPECT_EQ(m.NumRows(v), 0u);
    EXPECT_LE(stats.join_probes, size_t{kMiddles} * kFanIn);
  }
}

// "x1,x2,...,x32,<first>" with x1 renamed to `first`: 33 positions, 32
// distinct variables, the first one repeated last.
std::string Args33(const std::string& first) {
  std::string s = first;
  for (int i = 2; i <= 32; ++i) s += ",x" + std::to_string(i);
  return s + "," + first;
}

// Rules wider than the kernel frame's 64 stack ElemIds, counting the
// frame's slots (32 or 33 variables) and the tuple scratch (33
// positions), with a repeated variable, through a recursive stratum (W)
// and a non-recursive one (V): every join of Maintain, its
// Backward/Forward joins and its continuation, runs on the heap frame.
// The shape of EvalRegression.WideRulesRunThroughKernels' first
// program, widened.
TEST(MaintainJoin, WideRulesRoundTrip) {
  auto vocab = MakeVocabulary();
  const PredId e = vocab->AddPredicate("E", 33);
  const PredId f = vocab->AddPredicate("F", 33);
  const PredId s = vocab->AddPredicate("S", 2);
  ParseResult pr = ParseProgram(
      "W(" + Args33("x1") + ") :- E(" + Args33("x1") + "), F(" +
          Args33("x1") + ").\n" + "W(" + Args33("y") + ") :- W(" +
          Args33("x1") + "), S(x1,y).\n" + "V(" + Args33("x1") +
          ") :- W(" + Args33("x1") + "), F(" + Args33("x1") + ").\n",
      vocab);
  ASSERT_TRUE(pr.ok()) << pr.error;
  CompiledProgram compiled(*pr.program);
  Instance base(vocab);
  base.EnsureElements(20);
  std::vector<Fact> later;  // inserted, then deleted again
  for (ElemId i = 0; i < 12; ++i) {
    std::vector<ElemId> args;
    for (ElemId j = 0; j < 33; ++j) args.push_back((i * 7 + j * 3) % 20);
    // Odd tuples break the repeated variable's equality.
    if (i % 2 == 0) args[32] = args[0];
    std::vector<Fact> facts{Fact(e, args)};
    if (i % 3 != 0) facts.emplace_back(f, args);
    for (Fact& fact : facts) {
      if (i % 4 == 2) {
        later.push_back(std::move(fact));
      } else {
        base.AddFact(fact);
      }
    }
  }
  for (ElemId i = 0; i + 1 < 20; ++i) {
    if (i == 9) {
      later.push_back(Fact(s, {i, i + 1}));
    } else {
      base.AddFact(s, {i, i + 1});
    }
  }
  Instance m = compiled.Eval(base);
  const PredId w = *vocab->FindPredicate("W");
  const size_t before = m.NumRows(w);

  ApplyAndCheck(compiled, m, base, later, {}, "insert");
  EXPECT_GT(m.NumRows(w), before);
  MaintainResult res = ApplyAndCheck(compiled, m, base, {}, later, "delete");
  EXPECT_EQ(m.NumRows(w), before);
  EXPECT_GT(res.overdeleted, 0u);
}

// ApplyBatch normalizes a raw batch while applying it: duplicates,
// inserts of present facts and deletes of absent facts drop out, an
// absent fact on both sides is inserted, and a present one stays without
// being deleted. The base sees the inserts in order, then the deletes.
TEST(ApplyBatch, NormalizesWhileApplying) {
  auto vocab = MakeVocabulary();
  const PredId r = vocab->AddPredicate("R", 2);
  const PredId s = vocab->AddPredicate("S", 1);
  const PredId u = vocab->AddPredicate("U", 1);
  Instance base(vocab);
  const ElemId a = base.AddElement("a"), b = base.AddElement("b"),
               c = base.AddElement("c");
  for (const Fact& f :
       {Fact(r, {a, b}), Fact(r, {b, c}), Fact(s, {a}), Fact(s, {b})}) {
    base.AddFact(f);
  }
  const FactDelta delta = ApplyBatch(
      {Fact(r, {c, a}), Fact(r, {c, a}), Fact(r, {b, c}), Fact(u, {a}),
       Fact(s, {b})},
      {Fact(s, {a}), Fact(s, {a}), Fact(s, {c}), Fact(u, {a}), Fact(s, {b})},
      base);
  EXPECT_EQ(delta.inserts, (std::vector<Fact>{Fact(r, {c, a}), Fact(u, {a})}));
  EXPECT_EQ(delta.deletes, std::vector<Fact>{Fact(s, {a})});
  // S(a) leaves by swap-and-pop: the last fact, U(a), takes its place.
  EXPECT_EQ(base.AllFacts(),
            (std::vector<Fact>{Fact(r, {a, b}), Fact(r, {b, c}), Fact(u, {a}),
                               Fact(s, {b}), Fact(r, {c, a})}));

  // A batch that changes nothing returns an empty delta.
  EXPECT_TRUE(ApplyBatch({Fact(s, {b})}, {Fact(s, {c})}, base).empty());
  EXPECT_EQ(base.num_facts(), 5u);
}

// The whole MaintainResult, EDB and IDB facts alike, across four layers:
// the EDB, a non-recursive stratum over an IDB (C2 reads C1), a recursive
// stratum (T) and a non-recursive stratum above it (Top).
// ChurnSequencesPinned sees only the view-image projection; this pins the
// full lists in order. The lists were taken under DRed, with derivation
// counting on the non-recursive strata; both engines were replaced by
// Backward/Forward on every stratum, and insertion by the stratum loop's
// continuation, and only the o=/r= counters were re-taken (o= counts the
// disproved facts of every stratum, r= those of them put back).
TEST(MaintainJoin, WholeResultPinned) {
  auto vocab = MakeVocabulary();
  ParseResult pr = ParseProgram(R"(
    C1(x,y) :- E(x,y), A(x).
    C2(x,y) :- C1(x,y), B(y).
    T(x,y) :- C2(x,y).
    T(x,z) :- C2(x,y), T(y,z).
    Top(x) :- T(x,y), B(y).
  )",
                                vocab);
  ASSERT_TRUE(pr.ok()) << pr.error;
  const PredId e = *vocab->FindPredicate("E");
  const PredId a = *vocab->FindPredicate("A");
  const PredId b = *vocab->FindPredicate("B");
  const PredId c1 = *vocab->FindPredicate("C1");
  const PredId t = *vocab->FindPredicate("T");
  CompiledProgram compiled(*pr.program);
  Instance base(vocab);
  const ElemId va = base.AddElement("a"), vb = base.AddElement("b"),
               vc = base.AddElement("c"), vd = base.AddElement("d"),
               ve = base.AddElement("e");
  for (const Fact& f :
       {Fact(e, {va, vb}), Fact(e, {vb, vc}), Fact(e, {vc, vd}), Fact(a, {va}),
        Fact(a, {vb}), Fact(a, {vc}), Fact(b, {vb}), Fact(b, {vc}),
        Fact(b, {vd})}) {
    base.AddFact(f);
  }
  Instance m = compiled.Eval(base);
  // Applies one normalized batch and renders its MaintainResult.
  auto write = [&](std::vector<Fact> ins, std::vector<Fact> del,
                   const std::string& tag) {
    return ResultLine(m, ApplyAndCheck(compiled, m, base, std::move(ins),
                                       std::move(del), tag));
  };

  // Inserts only: the chain grows past d and gains a shortcut a -> c.
  EXPECT_EQ(write({Fact(e, {vd, ve}), Fact(a, {vd}), Fact(b, {ve}),
                   Fact(e, {va, vc})},
                  {}, "insert"),
            "+E(d,e)+A(d)+B(e)+E(a,c)+C1(a,c)+C1(d,e)+C2(a,c)+C2(d,e)+T(a,e)"
            "+T(b,e)+T(c,e)+T(d,e)+Top(d) o=0 r=0");
  // Deletes only: cutting b -> c disproves the three paths from b; the
  // paths from a through c keep a proof over the shortcut.
  EXPECT_EQ(write({}, {Fact(e, {vb, vc})}, "delete"),
            "-E(b,c)-C1(b,c)-C2(b,c)-T(b,c)-T(b,d)-T(b,e)-Top(b) o=6 r=0");
  // A joint write that puts disproved facts back: b reaches d directly
  // while c -> d goes, so T(a,d) has no proof over the old paths, and the
  // continuation derives it again through the new T(b,d). T(c,e)'s one
  // proof left runs through C2(c,e), new over the new edge c -> e; the
  // backward search does not see a lower stratum's new facts, so T(c,e)
  // and with it Top(c) are disproved, and the continuation puts them back.
  EXPECT_EQ(write({Fact(e, {vb, vd}), Fact(e, {vc, ve})},
                  {Fact(e, {vc, vd}), Fact(b, {vc}), Fact(e, {vd, ve})},
                  "joint"),
            "+E(b,d)+E(c,e)+C1(b,d)+C1(c,e)+C2(b,d)+C2(c,e)+T(b,d)+Top(b)"
            "-E(c,d)-B(c)-E(d,e)-C1(c,d)-C1(d,e)-C2(a,c)-C2(c,d)-C2(d,e)"
            "-T(a,c)-T(a,e)-T(c,d)-T(d,e)-Top(d) o=13 r=3");
  // Base IDB facts on both maintenance paths, next to an EDB delete.
  EXPECT_EQ(write({Fact(t, {ve, va}), Fact(c1, {ve, vb})}, {Fact(a, {va})},
                  "base idb"),
            "+C1(e,b)+C2(e,b)+T(c,a)+T(c,b)+T(c,d)+T(e,a)+T(e,b)+T(e,d)"
            "+Top(e)-A(a)-C1(a,b)-C1(a,c)-C2(a,b)-T(a,b)-T(a,d)-Top(a)"
            " o=6 r=0");
  // And their removal.
  EXPECT_EQ(write({}, {Fact(t, {ve, va}), Fact(c1, {ve, vb})}, "drop idb"),
            "-C1(e,b)-C2(e,b)-T(c,a)-T(c,b)-T(c,d)-T(e,a)-T(e,b)-T(e,d)"
            "-Top(e) o=9 r=0");
}

// A perfbench `churn`-shaped write stream: a 50-node graph in which every
// node has in- and out-degree 3, so the closure view holds all 2,500
// pairs, and 12 edge swaps. The closure keeps all 2,500 pairs through
// every swap, so Backward/Forward proves every closure candidate; what it
// disproves per swap are the VR facts of the two removed edges, and
// nothing is put back. Two digests:
//   - every ImageDelta in order, taken under DRed and derivation
//     counting, the maintenance this engine replaced; the change lists
//     must not depend on the engine;
//   - the maintained fixpoint in insertion order, taken under
//     Backward/Forward deletion followed by the stratum loop's
//     continuation, with each write's EDB deletes before its inserts: the
//     row order is part of the result.
TEST(MaintainedImage, ChurnSequencesPinned) {
  auto vocab = MakeVocabulary();
  const PredId r = vocab->AddPredicate("R", 2);
  const PredId u = vocab->AddPredicate("U", 1);
  ViewSet views(vocab);
  views.AddAtomicView("VR", r);
  views.AddAtomicView("VU", u);
  std::vector<Diagnostic> diags;
  auto vt = ParseQuery(R"(
    VT0(x,y) :- R(x,y).
    VT0(x,z) :- R(x,y), VT0(y,z).
  )",
                       "VT0", vocab, &diags);
  ASSERT_TRUE(vt.has_value()) << FormatDiagnostics(diags);
  const PredId vt_pred = views.AddView("VT", *vt);

  // The union of three random permutations that share no edge. Raw
  // mt19937_64 draws and a hand-written shuffle, so the graph is the same
  // under every standard library.
  constexpr ElemId kNodes = 50;
  std::mt19937_64 rng(7);
  auto draw = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  Instance base(vocab);
  base.EnsureElements(kNodes);
  std::vector<std::pair<ElemId, ElemId>> edges;
  std::vector<ElemId> target(kNodes);
  for (int k = 0; k < 3; ++k) {
    for (bool clash = true; clash;) {
      std::iota(target.begin(), target.end(), ElemId{0});
      for (size_t i = kNodes - 1; i > 0; --i) {
        std::swap(target[i], target[draw(i + 1)]);
      }
      clash = false;
      for (ElemId x = 0; x < kNodes && !clash; ++x) {
        clash = base.HasFact(r, {x, target[x]});
      }
    }
    for (ElemId x = 0; x < kNodes; ++x) {
      base.AddFact(r, {x, target[x]});
      edges.emplace_back(x, target[x]);
    }
  }
  for (ElemId x = 0; x < kNodes; x += 6) base.AddFact(u, {x});
  MaintainedImage maintained(views, base);
  ASSERT_EQ(maintained.image().NumRows(vt_pred), kNodes * kNodes);

  std::string deltas;
  for (int step = 0; step < 12; ++step) {
    // Swap (a,b), (c,d) for (a,d), (c,b): every degree stays 3.
    size_t i = 0, j = 0;
    ElemId a = 0, b = 0, c = 0, d = 0;
    do {
      i = draw(edges.size());
      j = draw(edges.size());
      std::tie(a, b) = edges[i];
      std::tie(c, d) = edges[j];
    } while (a == c || b == d || maintained.base().HasFact(r, {a, d}) ||
             maintained.base().HasFact(r, {c, b}));
    edges[i] = {a, d};
    edges[j] = {c, b};
    ImageDelta delta = maintained.ApplyDelta(
        {Fact(r, {a, d}), Fact(r, {c, b})}, {Fact(r, {a, b}), Fact(r, {c, d})});
    for (const Fact& f : delta.inserts) {
      deltas += "+" + FactToString(maintained.image(), f);
    }
    for (const Fact& f : delta.deletes) {
      deltas += "-" + FactToString(maintained.image(), f);
    }
    deltas += "\n";
    const std::string tag = "swap " + std::to_string(step);
    ExpectImageFresh(maintained, tag);
    EXPECT_EQ(maintained.image().NumRows(vt_pred), kNodes * kNodes) << tag;
    EXPECT_EQ(delta.overdeleted, 2u) << tag;
    EXPECT_EQ(delta.rederived, 0u) << tag;
  }
  std::string fixpoint;
  const Instance& fix = maintained.fixpoint();
  for (uint32_t g = 0; g < fix.num_facts(); ++g) {
    fixpoint += FactToString(fix, fix.ViewAt(g)) + ";";
  }
  EXPECT_EQ(testing::Fnv1a(deltas), 0xadf7236cd10cc99bull);
  EXPECT_EQ(testing::Fnv1a(fixpoint), 0x37a38eabcb1f3be7ull);
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
