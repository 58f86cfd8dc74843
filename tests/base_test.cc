#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <unordered_set>
#include <vector>

#include "base/gaifman.h"
#include "base/homomorphism.h"
#include "base/instance.h"
#include "base/symbol_table.h"
#include "tests/test_util.h"

namespace mondet {
namespace {

TEST(Vocabulary, InternsPredicates) {
  Vocabulary vocab;
  PredId r = vocab.AddPredicate("R", 2);
  PredId s = vocab.AddPredicate("S", 1);
  EXPECT_NE(r, s);
  EXPECT_EQ(vocab.AddPredicate("R", 2), r);
  EXPECT_EQ(vocab.arity(r), 2);
  EXPECT_EQ(vocab.name(s), "S");
  EXPECT_EQ(vocab.FindPredicate("R"), std::optional<PredId>(r));
  EXPECT_FALSE(vocab.FindPredicate("T").has_value());
}

TEST(Instance, AddAndDeduplicateFacts) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance inst(vocab);
  ElemId a = inst.AddElement("a");
  ElemId b = inst.AddElement("b");
  EXPECT_TRUE(inst.AddFact(r, {a, b}));
  EXPECT_FALSE(inst.AddFact(r, {a, b}));
  EXPECT_TRUE(inst.AddFact(r, {b, a}));
  EXPECT_EQ(inst.num_facts(), 2u);
  EXPECT_TRUE(inst.HasFact(r, {a, b}));
  EXPECT_FALSE(inst.HasFact(r, {a, a}));
}

TEST(Instance, ActiveDomainAndDegree) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance inst(vocab);
  ElemId a = inst.AddElement();
  ElemId b = inst.AddElement();
  ElemId c = inst.AddElement();  // isolated
  inst.AddFact(r, {a, b});
  auto adom = inst.ActiveDomain();
  EXPECT_EQ(adom.size(), 2u);
  EXPECT_TRUE(inst.InActiveDomain(a));
  EXPECT_FALSE(inst.InActiveDomain(c));
  EXPECT_EQ(inst.Degree(a), 1u);
  EXPECT_EQ(inst.Degree(c), 0u);
}

TEST(Instance, PositionIndex) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance inst = MakePath(vocab, r, 5);
  EXPECT_EQ(inst.NumRows(r), 5u);
  EXPECT_EQ(inst.RowsWith(r, 0, 0).size(), 1u);
  EXPECT_EQ(inst.RowsWith(r, 1, 0).size(), 0u);
  // Index stays correct after adding more facts.
  inst.AddFact(r, {0, 0});
  EXPECT_EQ(inst.RowsWith(r, 0, 0).size(), 2u);
}

TEST(Instance, IncrementalIndexMaintenance) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  PredId s = vocab->AddPredicate("S", 1);
  Instance inst(vocab);
  ElemId a = inst.AddElement();
  ElemId b = inst.AddElement();
  inst.AddFact(r, {a, b});
  // First positional query materializes the index; from here on it is
  // maintained incrementally by AddFact.
  EXPECT_EQ(inst.RowsWith(r, 0, a).size(), 1u);
  // Facts added after the index went live must be visible, including on
  // predicates never queried before.
  inst.AddFact(r, {b, a});
  inst.AddFact(s, {b});
  EXPECT_EQ(inst.RowsWith(r, 0, b).size(), 1u);
  EXPECT_EQ(inst.RowsWith(r, 1, a).size(), 1u);
  EXPECT_EQ(inst.RowsWith(s, 0, b).size(), 1u);
  // Interleave more adds and queries; duplicates must not re-index.
  inst.AddFact(r, {a, b});  // duplicate, rejected
  EXPECT_EQ(inst.RowsWith(r, 0, a).size(), 1u);
  ElemId c = inst.AddElement();
  inst.AddFact(r, {a, c});
  EXPECT_EQ(inst.RowsWith(r, 0, a).size(), 2u);
  EXPECT_EQ(inst.RowsWith(r, 1, c).size(), 1u);
}

TEST(Instance, RestrictTo) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  PredId s = vocab->AddPredicate("S", 1);
  Instance inst(vocab);
  ElemId a = inst.AddElement();
  inst.AddFact(r, {a, a});
  inst.AddFact(s, {a});
  Instance restricted = inst.RestrictTo({s});
  EXPECT_EQ(restricted.num_facts(), 1u);
  EXPECT_TRUE(restricted.HasFact(s, {a}));
}

TEST(Instance, DisjointUnion) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance a = MakePath(vocab, r, 2);
  Instance b = MakePath(vocab, r, 3);
  size_t before = a.num_elements();
  auto translation = a.DisjointUnionWith(b);
  EXPECT_EQ(a.num_elements(), before + b.num_elements());
  EXPECT_EQ(a.num_facts(), 5u);
  EXPECT_EQ(translation.size(), b.num_elements());
}

TEST(Gaifman, PathRadiusAndConnectivity) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance path = MakePath(vocab, r, 4);  // 5 elements
  GaifmanGraph g(path);
  EXPECT_TRUE(g.IsConnected());
  EXPECT_EQ(g.Radius(), 2);  // middle vertex
  EXPECT_EQ(g.Components().size(), 1u);
}

TEST(Gaifman, DisconnectedComponents) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance inst(vocab);
  ElemId a = inst.AddElement();
  ElemId b = inst.AddElement();
  ElemId c = inst.AddElement();
  ElemId d = inst.AddElement();
  inst.AddFact(r, {a, b});
  inst.AddFact(r, {c, d});
  GaifmanGraph g(inst);
  EXPECT_FALSE(g.IsConnected());
  EXPECT_EQ(g.Components().size(), 2u);
}

TEST(Gaifman, TernaryFactMakesClique) {
  auto vocab = MakeVocabulary();
  PredId t = vocab->AddPredicate("T", 3);
  Instance inst(vocab);
  ElemId a = inst.AddElement();
  ElemId b = inst.AddElement();
  ElemId c = inst.AddElement();
  inst.AddFact(t, {a, b, c});
  GaifmanGraph g(inst);
  EXPECT_EQ(g.Neighbors(a).size(), 2u);
  EXPECT_EQ(g.Radius(), 1);
}

TEST(Homomorphism, PathIntoLongerPath) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance short_path = MakePath(vocab, r, 2);
  Instance long_path = MakePath(vocab, r, 5);
  EXPECT_TRUE(HasHomomorphism(short_path, long_path));
  EXPECT_FALSE(HasHomomorphism(long_path, short_path));
}

TEST(Homomorphism, PathIntoCycle) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance path = MakePath(vocab, r, 7);
  Instance cycle = MakeCycle(vocab, r, 3);
  EXPECT_TRUE(HasHomomorphism(path, cycle));
  EXPECT_FALSE(HasHomomorphism(cycle, path));
}

TEST(Homomorphism, OddCycleIntoEvenCycleFails) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance c3 = MakeCycle(vocab, r, 3);
  Instance c6 = MakeCycle(vocab, r, 6);
  EXPECT_FALSE(HasHomomorphism(c3, c6));
  EXPECT_TRUE(HasHomomorphism(c6, c3));
}

TEST(Homomorphism, FixedAssignmentsRespected) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance path = MakePath(vocab, r, 1);  // a -> b
  Instance target = MakePath(vocab, r, 2);
  HomSearch search(path, target);
  EXPECT_TRUE(search.Exists({{0, 0}}));
  EXPECT_TRUE(search.Exists({{0, 1}}));
  EXPECT_FALSE(search.Exists({{0, 2}}));  // last node has no successor
  EXPECT_FALSE(search.Exists({{0, 0}, {1, 2}}));
}

TEST(Homomorphism, CountsAllMaps) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance edge = MakePath(vocab, r, 1);
  Instance target = MakePath(vocab, r, 3);
  EXPECT_EQ(HomSearch(edge, target).Count(), 3u);
  Instance cycle = MakeCycle(vocab, r, 4);
  EXPECT_EQ(HomSearch(edge, cycle).Count(), 4u);
}

TEST(Homomorphism, IsolatedPatternElements) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance pattern(vocab);
  pattern.AddElement();  // isolated
  Instance empty(vocab);
  EXPECT_FALSE(HasHomomorphism(pattern, empty));
  Instance nonempty = MakePath(vocab, r, 1);
  EXPECT_TRUE(HasHomomorphism(pattern, nonempty));
}

TEST(Homomorphism, VerifyExplicitMap) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance p = MakePath(vocab, r, 1);
  Instance t = MakeCycle(vocab, r, 2);
  EXPECT_TRUE(IsHomomorphism(p, t, {0, 1}));
  EXPECT_FALSE(IsHomomorphism(p, t, {0, 0}));
}

TEST(Homomorphism, HomEquivalence) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  // A 3-cycle is hom-equivalent to a 3-cycle with a tail feeding into it.
  Instance c3 = MakeCycle(vocab, r, 3);
  Instance c3_tail = MakeCycle(vocab, r, 3);
  ElemId tail = c3_tail.AddElement();
  c3_tail.AddFact(r, {tail, 0});
  EXPECT_TRUE(HomEquivalent(c3, c3_tail));
  Instance c2 = MakeCycle(vocab, r, 2);
  EXPECT_FALSE(HomEquivalent(c2, c3));
}

TEST(HomomorphismProperty, RandomInstancesCompose) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  PredId s = vocab->AddPredicate("S", 1);
  for (unsigned seed = 0; seed < 10; ++seed) {
    Instance a = RandomInstance(vocab, {r, s}, 4, 6, seed);
    Instance b = RandomInstance(vocab, {r, s}, 5, 12, seed + 100);
    HomSearch search(a, b);
    auto hom = search.FindOne();
    if (hom) {
      EXPECT_TRUE(IsHomomorphism(a, b, *hom)) << "seed " << seed;
    }
    // Every instance maps into itself.
    EXPECT_TRUE(HasHomomorphism(a, a));
  }
}

TEST(FactHashTest, DenseConsecutiveFactsDoNotCollide) {
  // Collision regression for the SplitMix64-finalized fact hash: the
  // open-addressing fact table and the unordered fact sets key on
  // HashFactKey, and the workloads it must survive are exactly the dense
  // ones the columnar store produces — consecutive small ElemIds over a
  // handful of predicates. A weak mix (e.g. the old shift-xor fold)
  // collapses such keys onto a few buckets; SplitMix64's full avalanche
  // keeps them distinct and spread.
  constexpr int kPreds = 4;
  constexpr ElemId kSide = 50;  // 4 * 50 * 50 = 10000 dense facts
  std::unordered_set<uint64_t> hashes;
  std::vector<size_t> load(1024, 0);
  for (PredId p = 0; p < kPreds; ++p) {
    for (ElemId a = 0; a < kSide; ++a) {
      for (ElemId b = 0; b < kSide; ++b) {
        const ElemId args[2] = {a, b};
        const uint64_t h = HashFactKey(p, std::span<const ElemId>(args, 2));
        hashes.insert(h);
        ++load[h & 1023u];
      }
    }
  }
  // All 64-bit hashes distinct: on 10k keys even one collision is a red
  // flag (the birthday bound for a healthy 64-bit hash is ~2^32 keys).
  EXPECT_EQ(hashes.size(),
            static_cast<size_t>(kPreds) * kSide * kSide);
  // And the low bits alone must spread them: max load over 1024
  // power-of-2 buckets stays within 3x of the mean, the regime the
  // linear-probing table's 3/4 load factor is designed around.
  const size_t mean = hashes.size() / load.size();
  const size_t worst = *std::max_element(load.begin(), load.end());
  EXPECT_LE(worst, 3 * mean) << "low-bit clustering: worst bucket "
                             << worst << " vs mean " << mean;
}

TEST(FactHashTest, ArgumentOrderAndPredicateChangeTheHash) {
  const ElemId ab[2] = {1, 2};
  const ElemId ba[2] = {2, 1};
  EXPECT_NE(HashFactKey(0, std::span<const ElemId>(ab, 2)),
            HashFactKey(0, std::span<const ElemId>(ba, 2)));
  EXPECT_NE(HashFactKey(0, std::span<const ElemId>(ab, 2)),
            HashFactKey(1, std::span<const ElemId>(ab, 2)));
  // The transparent functors agree across Fact and FactView.
  Fact f(0, {1, 2});
  FactView v{0, std::span<const ElemId>(ab, 2)};
  EXPECT_EQ(FactHash{}(f), FactHash{}(v));
  EXPECT_TRUE(FactEq{}(f, v));
}

}  // namespace
}  // namespace mondet
