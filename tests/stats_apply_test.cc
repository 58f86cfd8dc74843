// Property oracle for delta statistics maintenance (Stats::Apply, the
// fold Maintain runs per batch): folding the facts of a stream into a
// snapshot, over arbitrary delta partitions, is exactly equal —
// cardinality and every per-position distinct count — to Stats::Collect
// from scratch on the final instance. Insert-only streams pass an empty
// removal list. Streams are drawn over small element pools so duplicate
// facts are frequent (AddFact rejects them; only genuinely new facts may
// reach Apply), and empty deltas are interleaved as an explicit edge case.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <vector>

#include "base/stats.h"
#include "tests/test_util.h"

namespace mondet {
namespace {

VocabularyPtr StreamVocab() {
  auto vocab = MakeVocabulary();
  vocab->AddPredicate("G", 0);
  vocab->AddPredicate("U", 1);
  vocab->AddPredicate("R", 2);
  vocab->AddPredicate("T", 3);
  return vocab;
}

Fact RandomFact(const VocabularyPtr& vocab, const std::vector<PredId>& preds,
                size_t elems, std::mt19937& rng) {
  std::uniform_int_distribution<size_t> pred_dist(0, preds.size() - 1);
  std::uniform_int_distribution<ElemId> elem_dist(
      0, static_cast<ElemId>(elems - 1));
  PredId p = preds[pred_dist(rng)];
  std::vector<ElemId> args;
  for (int j = 0; j < vocab->arity(p); ++j) args.push_back(elem_dist(rng));
  return Fact(p, std::move(args));
}

void ExpectStatsEqual(const Stats& got, const Stats& want,
                      const VocabularyPtr& vocab, unsigned seed) {
  EXPECT_EQ(got.counted_facts(), want.counted_facts()) << "seed " << seed;
  for (PredId p : vocab->AllPredicates()) {
    EXPECT_EQ(got.cardinality(p), want.cardinality(p))
        << "seed " << seed << " pred " << vocab->name(p);
    for (int i = 0; i < vocab->arity(p); ++i) {
      EXPECT_EQ(got.distinct(p, i), want.distinct(p, i))
          << "seed " << seed << " pred " << vocab->name(p) << " pos " << i;
    }
  }
}

TEST(StatsApplyTest, ApplyOverRandomPartitionsMatchesCollect) {
  for (unsigned seed = 0; seed < 250; ++seed) {
    auto vocab = StreamVocab();
    std::vector<PredId> preds = vocab->AllPredicates();
    std::mt19937 rng(7000 + seed);
    const size_t elems = 2 + seed % 7;  // small pools force duplicates
    Instance inst(vocab);
    for (size_t i = 0; i < elems; ++i) inst.AddElement();

    // A random prefix is counted by Collect; the rest arrives as a
    // stream cut into random delta partitions.
    std::uniform_int_distribution<int> prefix_dist(0, 10);
    const int prefix = prefix_dist(rng);
    for (int i = 0; i < prefix; ++i) {
      inst.AddFact(RandomFact(vocab, preds, elems, rng));
    }
    Stats stats = Stats::Collect(inst);

    std::uniform_int_distribution<int> len_dist(20, 60);
    std::uniform_int_distribution<int> cut_dist(0, 3);
    const int len = len_dist(rng);
    std::vector<Fact> delta;
    for (int i = 0; i < len; ++i) {
      Fact f = RandomFact(vocab, preds, elems, rng);
      // Duplicates never reach Apply: AddFact's dedup is the contract
      // that keeps the counts exact.
      if (inst.AddFact(f)) delta.push_back(std::move(f));
      if (cut_dist(rng) == 0) {
        stats.Apply(inst, delta, {});
        delta.clear();
        // Empty deltas are legal whenever the snapshot is current.
        if (cut_dist(rng) == 0) stats.Apply(inst, {}, {});
      }
    }
    stats.Apply(inst, delta, {});

    ExpectStatsEqual(stats, Stats::Collect(inst), vocab, seed);
  }
}

TEST(StatsApplyTest, RepeatedDuplicatesLeaveCountsExact) {
  auto vocab = StreamVocab();
  Instance inst(vocab);
  ElemId a = inst.AddElement("a"), b = inst.AddElement("b");
  PredId r = *vocab->FindPredicate("R");
  Stats stats = Stats::Collect(inst);

  // The same fact offered many times only ever enters the delta once.
  std::vector<Fact> delta;
  for (int i = 0; i < 5; ++i) {
    Fact f(r, {a, b});
    if (inst.AddFact(f)) delta.push_back(std::move(f));
  }
  ASSERT_EQ(delta.size(), 1u);
  stats.Apply(inst, delta, {});
  EXPECT_EQ(stats.cardinality(r), 1u);
  EXPECT_EQ(stats.distinct(r, 0), 1u);
  EXPECT_EQ(stats.distinct(r, 1), 1u);
  ExpectStatsEqual(stats, Stats::Collect(inst), vocab, 0);
}

TEST(StatsApplyTest, EmptyDeltaIsANoOp) {
  auto vocab = StreamVocab();
  std::vector<PredId> preds = vocab->AllPredicates();
  Instance inst = RandomInstance(vocab, preds, 5, 15, 8000);
  Stats stats = Stats::Collect(inst);
  stats.Apply(inst, {}, {});
  stats.Apply(inst, {}, {});
  ExpectStatsEqual(stats, Stats::Collect(inst), vocab, 0);
}

TEST(StatsApplyTest, ApplySeesNewPositionsOfGrowingRelations) {
  // A relation that is empty at Collect time gains its first facts purely
  // through Apply; distinct counts must materialize from nothing.
  auto vocab = StreamVocab();
  Instance inst(vocab);
  ElemId a = inst.AddElement(), b = inst.AddElement(),
         c = inst.AddElement();
  PredId t = *vocab->FindPredicate("T");
  Stats stats = Stats::Collect(inst);
  std::vector<Fact> delta;
  auto add = [&](ElemId x, ElemId y, ElemId z) {
    Fact f(t, {x, y, z});
    if (inst.AddFact(f)) delta.push_back(std::move(f));
  };
  add(a, a, b);
  add(a, b, c);
  add(b, b, c);
  stats.Apply(inst, delta, {});
  EXPECT_EQ(stats.cardinality(t), 3u);
  EXPECT_EQ(stats.distinct(t, 0), 2u);  // {a, b}
  EXPECT_EQ(stats.distinct(t, 1), 2u);  // {a, b}
  EXPECT_EQ(stats.distinct(t, 2), 2u);  // {b, c}
  ExpectStatsEqual(stats, Stats::Collect(inst), vocab, 0);
}

TEST(StatsApplyTest, MixedInsertDeleteStreamMatchesCollect) {
  // The retraction arm of the oracle: interleaved genuine inserts and
  // deletes (RemoveFact dedups the same way AddFact does) folded in over
  // random partitions must land exactly on Collect of the final
  // instance — removals drive per-value multiplicities back through the
  // erase-at-zero path that shrinks the distinct counts.
  for (unsigned seed = 0; seed < 250; ++seed) {
    auto vocab = StreamVocab();
    std::vector<PredId> preds = vocab->AllPredicates();
    std::mt19937 rng(9000 + seed);
    const size_t elems = 2 + seed % 7;
    Instance inst(vocab);
    for (size_t i = 0; i < elems; ++i) inst.AddElement();
    std::uniform_int_distribution<int> prefix_dist(0, 10);
    const int prefix = prefix_dist(rng);
    for (int i = 0; i < prefix; ++i) {
      inst.AddFact(RandomFact(vocab, preds, elems, rng));
    }
    Stats stats = Stats::Collect(inst);

    std::uniform_int_distribution<int> len_dist(20, 60);
    std::uniform_int_distribution<int> cut_dist(0, 3);
    const int len = len_dist(rng);
    std::vector<Fact> added, removed;
    for (int i = 0; i < len; ++i) {
      if (rng() % 3 == 0 && inst.num_facts() > 0) {
        // Delete a present fact — unless this batch just added it, in
        // which case the pair must cancel out of the delta instead
        // (Apply's contract covers net changes only).
        Fact f = inst.FactAt(static_cast<uint32_t>(rng() % inst.num_facts()));
        ASSERT_TRUE(inst.RemoveFact(f));
        auto it = std::find(added.begin(), added.end(), f);
        if (it != added.end()) {
          added.erase(it);
        } else {
          removed.push_back(std::move(f));
        }
      } else {
        Fact f = RandomFact(vocab, preds, elems, rng);
        // A fact removed earlier in this batch and re-added also
        // cancels; otherwise only genuinely new facts enter the delta.
        auto it = std::find(removed.begin(), removed.end(), f);
        if (inst.AddFact(f)) {
          if (it != removed.end()) {
            removed.erase(it);
          } else {
            added.push_back(std::move(f));
          }
        }
      }
      if (cut_dist(rng) == 0) {
        stats.Apply(inst, added, removed);
        added.clear();
        removed.clear();
      }
    }
    stats.Apply(inst, added, removed);

    ExpectStatsEqual(stats, Stats::Collect(inst), vocab, seed);
  }
}

TEST(StatsApplyTest, DeleteDrainsRelationToEmpty) {
  auto vocab = StreamVocab();
  Instance inst(vocab);
  ElemId a = inst.AddElement(), b = inst.AddElement();
  PredId r = *vocab->FindPredicate("R");
  inst.AddFact(r, {a, b});
  inst.AddFact(r, {b, b});
  Stats stats = Stats::Collect(inst);
  EXPECT_EQ(stats.distinct(r, 1), 1u);  // {b}

  std::vector<Fact> removed = {Fact(r, {a, b})};
  ASSERT_TRUE(inst.RemoveFact(removed[0]));
  stats.Apply(inst, {}, removed);
  EXPECT_EQ(stats.cardinality(r), 1u);
  EXPECT_EQ(stats.distinct(r, 0), 1u);  // {a} gone, {b} stays
  EXPECT_EQ(stats.distinct(r, 1), 1u);

  removed = {Fact(r, {b, b})};
  ASSERT_TRUE(inst.RemoveFact(removed[0]));
  stats.Apply(inst, {}, removed);
  EXPECT_EQ(stats.cardinality(r), 0u);
  EXPECT_EQ(stats.distinct(r, 0), 0u);
  EXPECT_EQ(stats.distinct(r, 1), 0u);
  ExpectStatsEqual(stats, Stats::Collect(inst), vocab, 0);
}

}  // namespace
}  // namespace mondet
