// Property tests for the planner statistics (base/stats.h): collection is
// exact on small instances (counts match a brute-force recount), Refresh
// agrees with a fresh Collect, the selectivity estimates match hand
// calculations, planning from stale statistics still yields correct
// fixpoints (stale stats may cost time, never correctness), and Apply
// aborts on the stale-snapshot footgun — a delta that does not extend the
// counted instance. (The Apply-vs-Collect equivalence oracle lives in
// stats_apply_test.cc.)

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <span>
#include <vector>

#include "base/stats.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/program.h"
#include "testing/reference.h"
#include "tests/test_util.h"

namespace mondet {
namespace {

VocabularyPtr SmallVocab() {
  auto vocab = MakeVocabulary();
  vocab->AddPredicate("U", 1);
  vocab->AddPredicate("R", 2);
  vocab->AddPredicate("T", 3);
  return vocab;
}

/// Brute-force recount of one predicate straight off facts().
PredicateStats BruteForce(const Instance& inst, PredId p) {
  PredicateStats ps;
  ps.distinct.assign(inst.vocab()->arity(p), 0);
  std::vector<std::set<ElemId>> vals(inst.vocab()->arity(p));
  for (const Fact& f : inst.AllFacts()) {
    if (f.pred != p) continue;
    ++ps.cardinality;
    for (size_t i = 0; i < f.args.size(); ++i) vals[i].insert(f.args[i]);
  }
  for (size_t i = 0; i < vals.size(); ++i) ps.distinct[i] = vals[i].size();
  return ps;
}

TEST(StatsTest, CollectIsExactOnRandomInstances) {
  auto vocab = SmallVocab();
  std::vector<PredId> preds = vocab->AllPredicates();
  for (unsigned seed = 0; seed < 50; ++seed) {
    Instance inst = RandomInstance(vocab, preds, 6, 12, 1000 + seed);
    Stats stats = Stats::Collect(inst);
    for (PredId p : preds) {
      PredicateStats want = BruteForce(inst, p);
      EXPECT_EQ(stats.cardinality(p), want.cardinality) << "seed " << seed;
      for (size_t i = 0; i < want.distinct.size(); ++i) {
        EXPECT_EQ(stats.distinct(p, i), want.distinct[i])
            << "seed " << seed << " pred " << vocab->name(p) << " pos " << i;
      }
    }
  }
}

TEST(StatsTest, RefreshMatchesFreshCollect) {
  auto vocab = SmallVocab();
  std::vector<PredId> preds = vocab->AllPredicates();
  for (unsigned seed = 0; seed < 20; ++seed) {
    Instance inst = RandomInstance(vocab, preds, 5, 8, 2000 + seed);
    Stats stats = Stats::Collect(inst);
    // Grow the instance, refresh only the changed predicates.
    std::mt19937 rng(3000 + seed);
    std::uniform_int_distribution<ElemId> elem(0, inst.num_elements() - 1);
    PredId r = *vocab->FindPredicate("R");
    PredId u = *vocab->FindPredicate("U");
    for (int i = 0; i < 6; ++i) {
      inst.AddFact(r, {elem(rng), elem(rng)});
      inst.AddFact(u, {elem(rng)});
    }
    stats.Refresh(inst, {r, u});
    Stats fresh = Stats::Collect(inst);
    for (PredId p : preds) {
      EXPECT_EQ(stats.cardinality(p), fresh.cardinality(p)) << "seed " << seed;
      for (int i = 0; i < vocab->arity(p); ++i) {
        EXPECT_EQ(stats.distinct(p, i), fresh.distinct(p, i))
            << "seed " << seed;
      }
    }
  }
}

TEST(StatsTest, EstimateMatchesHandComputed) {
  auto vocab = SmallVocab();
  Instance inst(vocab);
  ElemId a = inst.AddElement("a"), b = inst.AddElement("b"),
         c = inst.AddElement("c");
  PredId r = *vocab->FindPredicate("R");
  inst.AddFact(r, {a, b});
  inst.AddFact(r, {a, c});
  inst.AddFact(r, {b, c});
  Stats stats = Stats::Collect(inst);
  EXPECT_EQ(stats.cardinality(r), 3u);
  EXPECT_EQ(stats.distinct(r, 0), 2u);  // {a, b}
  EXPECT_EQ(stats.distinct(r, 1), 2u);  // {b, c}
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(r, {false, false}), 3.0);
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(r, {true, false}), 1.5);
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(r, {false, true}), 1.5);
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(r, {true, true}), 0.75);
  // Unknown / empty predicates estimate to zero rows.
  PredId u = *vocab->FindPredicate("U");
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(u, {false}), 0.0);
}

TEST(StatsDeathTest, ApplyRejectsDeltaFromADifferentInstance) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto vocab = SmallVocab();
  std::vector<PredId> preds = vocab->AllPredicates();
  Instance snapshot_src = RandomInstance(vocab, preds, 4, 6, 6000);
  Instance other = RandomInstance(vocab, preds, 6, 14, 6001);
  Stats stats = Stats::Collect(snapshot_src);
  ASSERT_NE(stats.counted_facts() + 1, other.num_facts());
  // The fact-count contract check fires even in release builds
  // (MONDET_CHECK is always on): a snapshot of A fed a delta of B aborts
  // instead of silently corrupting the counts.
  const std::vector<Fact> other_facts = other.AllFacts();
  std::span<const Fact> delta(other_facts.data(), 1);
  EXPECT_DEATH(stats.Apply(other, delta, {}), "Stats::Apply");
}

TEST(StatsDeathTest, ApplyRejectsAlreadyCountedFacts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto vocab = SmallVocab();
  std::vector<PredId> preds = vocab->AllPredicates();
  Instance inst = RandomInstance(vocab, preds, 4, 6, 6002);
  Stats stats = Stats::Collect(inst);
  ASSERT_GT(inst.num_facts(), 0u);
  // Re-offering a counted fact would double-count: |counted| + |delta|
  // overshoots inst.num_facts() and the contract check aborts.
  const std::vector<Fact> inst_facts = inst.AllFacts();
  std::span<const Fact> delta(inst_facts.data(), 1);
  EXPECT_DEATH(stats.Apply(inst, delta, {}), "Stats::Apply");
}

TEST(StatsDeathTest, ApplyRejectsRemovalOfNeverCountedFact) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto vocab = SmallVocab();
  std::vector<PredId> preds = vocab->AllPredicates();
  Instance inst = RandomInstance(vocab, preds, 4, 6, 6003);
  ASSERT_GT(inst.num_facts(), 0u);
  Stats stats = Stats::Collect(inst);
  // Balance the contract equation by genuinely removing one fact, but
  // report the removal of a fact the snapshot never counted: the
  // per-value (or per-relation) check aborts instead of driving some
  // other fact's multiplicity negative.
  Fact removed = inst.FactAt(0);
  ASSERT_TRUE(inst.RemoveFact(removed));
  ElemId fresh = inst.AddElement();
  std::vector<Fact> bogus = {
      Fact(*vocab->FindPredicate("R"), {fresh, fresh})};
  EXPECT_DEATH(stats.Apply(inst, {}, bogus), "Stats::Apply");
}

TEST(StatsDeathTest, ApplyRejectsDoubleDelete) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto vocab = SmallVocab();
  Instance inst(vocab);
  ElemId a = inst.AddElement(), b = inst.AddElement();
  PredId r = *vocab->FindPredicate("R");
  inst.AddFact(r, {a, b});
  inst.AddFact(r, {a, a});
  Stats stats = Stats::Collect(inst);
  // Remove two facts but report the same one twice: the batch balances
  // the equation, so it is the per-value zero-crossing that must catch
  // the second, already-erased removal.
  ASSERT_TRUE(inst.RemoveFact(Fact(r, {a, b})));
  ASSERT_TRUE(inst.RemoveFact(Fact(r, {a, a})));
  std::vector<Fact> twice = {Fact(r, {a, b}), Fact(r, {a, b})};
  EXPECT_DEATH(stats.Apply(inst, {}, twice), "Stats::Apply");

  // The honest report lands; re-deleting after that — a second batch
  // claiming the same removal — trips the counted-facts equation itself.
  std::vector<Fact> both = {Fact(r, {a, b}), Fact(r, {a, a})};
  stats.Apply(inst, {}, both);
  EXPECT_EQ(stats.cardinality(r), 0u);
  std::vector<Fact> once = {Fact(r, {a, b})};
  EXPECT_DEATH(stats.Apply(inst, {}, once), "Stats::Apply");
}

TEST(StatsTest, StaleStatsStillYieldCorrectFixpoints) {
  // Plan from statistics of instance A while evaluating instance B: the
  // orders may be bad, the fixpoint must be identical to the naive
  // reference and to the default (live-stats) run.
  auto vocab = MakeVocabulary();
  PredId u = vocab->AddPredicate("U", 1);
  PredId r = vocab->AddPredicate("R", 2);
  PredId p = vocab->AddPredicate("P", 1);
  PredId q = vocab->AddPredicate("Q", 2);
  Program program(vocab);
  {
    RuleBuilder rb(vocab);
    rb.Head(p, {"x"});
    rb.Atom(u, {"x"});
    program.AddRule(rb.Build());
  }
  {
    RuleBuilder rb(vocab);
    rb.Head(p, {"y"});
    rb.Atom(p, {"x"});
    rb.Atom(r, {"x", "y"});
    program.AddRule(rb.Build());
  }
  {
    RuleBuilder rb(vocab);
    rb.Head(q, {"x", "y"});
    rb.Atom(p, {"x"});
    rb.Atom(r, {"x", "y"});
    rb.Atom(p, {"y"});
    program.AddRule(rb.Build());
  }
  std::vector<PredId> preds = {u, r};
  for (unsigned seed = 0; seed < 30; ++seed) {
    Instance stale_src = RandomInstance(vocab, preds, 4, 6, 4000 + seed);
    Instance inst = RandomInstance(vocab, preds, 8, 20, 5000 + seed);
    Stats stale = Stats::Collect(stale_src);

    CompiledProgram compiled(program);
    EvalOptions with_stale;
    with_stale.stats = &stale;
    Instance got = compiled.Eval(inst, nullptr, with_stale);
    Instance naive = NaiveFpEval(program, inst);
    EvalOptions with_live;
    with_live.stats_min_facts = 0;  // instances sit below the size gate
    Instance live = compiled.Eval(inst, nullptr, with_live);

    ASSERT_EQ(naive.num_facts(), got.num_facts()) << "seed " << seed;
    for (const Fact& f : naive.AllFacts()) {
      EXPECT_TRUE(got.HasFact(f)) << "seed " << seed;
    }
    // Same fact set as the default live-stats run (the sequences may
    // differ: join orders change the enumeration order within a round).
    ASSERT_EQ(live.num_facts(), got.num_facts()) << "seed " << seed;
    for (const Fact& f : live.AllFacts()) {
      EXPECT_TRUE(got.HasFact(f)) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mondet
