#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "automata/ops.h"
#include "core/mondet_check.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "testing/corpus.h"
#include "testing/describe.h"
#include "testing/generator.h"
#include "testing/oracle.h"
#include "testing/shrink.h"
#include "tests/test_util.h"

namespace mondet {
namespace {

using testing::ChainOfANta;
using testing::NtaEnumerationCodes;
using testing::NtaLabelA;
using testing::NtaLabelB;
using testing::NthBelowRootIsANta;
using testing::RandomNta;

SymbolUniverse MergedUniverse(const Nta& a, const Nta& b) {
  SymbolUniverse u = SymbolsOf(a);
  u.Merge(SymbolsOf(b));
  return u;
}

/// The width-1 automaton accepting every code over the two-label alphabet.
Nta UniversalNta() {
  Nta m(1);
  State q = m.AddState();
  for (const NodeLabel& l : {NtaLabelA(), NtaLabelB()}) {
    m.AddLeaf(l, q);
    m.AddUnary(l, EdgeLabel{}, q, q);
    m.AddBinary(l, EdgeLabel{}, EdgeLabel{}, q, q, q);
  }
  m.AddFinal(q);
  return m;
}

using Counts = std::array<size_t, 4>;  // pairs, visits, macrostates, prunes

Counts CountsOf(const Thm5Result& r) {
  return {r.pairs_explored, r.transition_visits, r.macrostates_visited,
          r.subsumption_prunes};
}

/// Node atoms, children and edge maps, independent of the vocabulary.
std::string RenderCode(const TreeCode& code) {
  std::string s = "w" + std::to_string(code.width);
  for (const CodeNode& n : code.nodes) {
    s += "[";
    for (const AtomLabel& a : n.atoms) {
      s += std::to_string(a.pred) + "(";
      for (int p : a.positions) s += std::to_string(p) + ",";
      s += ")";
    }
    for (size_t i = 0; i < n.children.size(); ++i) {
      s += "|" + std::to_string(n.children[i]) + ":";
      for (const auto& [x, y] : n.edge_labels[i].same) {
        s += std::to_string(x) + "=" + std::to_string(y) + ",";
      }
    }
    s += "]";
  }
  return s;
}

TEST(NtaIncluded, SelfInclusionOnRandomAutomata) {
  for (unsigned seed = 0; seed < 30; ++seed) {
    Nta a = RandomNta(seed);
    NtaInclusionResult r = NtaIncluded(a, a, SymbolsOf(a));
    EXPECT_TRUE(r.included) << "seed " << seed;
    EXPECT_FALSE(r.witness.has_value());
  }
}

TEST(NtaIncluded, EmptyLeftSideIsIncludedInAnything) {
  Nta empty(1);
  empty.AddState();
  empty.AddLeaf(NtaLabelA(), 0);  // reachable state, but no finals
  for (unsigned seed = 0; seed < 10; ++seed) {
    Nta b = RandomNta(seed);
    NtaInclusionResult r = NtaIncluded(empty, b, MergedUniverse(empty, b));
    EXPECT_TRUE(r.included) << "seed " << seed;
  }
}

TEST(NtaIncluded, EverythingIsIncludedInUniversal) {
  Nta univ = UniversalNta();
  for (unsigned seed = 0; seed < 30; ++seed) {
    Nta a = RandomNta(seed);
    NtaInclusionResult r = NtaIncluded(a, univ, MergedUniverse(a, univ));
    EXPECT_TRUE(r.included) << "seed " << seed;
  }
}

TEST(NtaIncluded, HandBuiltWitnessHasExactShape) {
  // a accepts exactly the 2-chain of A's, b only the single A leaf: the
  // sole separating code is the 2-chain, and the walk must surface it.
  Nta a = ChainOfANta(2);
  Nta b = ChainOfANta(1);
  NtaInclusionResult r = NtaIncluded(a, b, MergedUniverse(a, b));
  EXPECT_FALSE(r.included);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(r.witness->Validate());
  EXPECT_EQ(r.witness->width, 1);
  ASSERT_EQ(r.witness->nodes.size(), 2u);
  EXPECT_EQ(r.witness->nodes[0].atoms, NtaLabelA());
  EXPECT_EQ(r.witness->nodes[1].atoms, NtaLabelA());
  EXPECT_EQ(r.witness->nodes[0].children, std::vector<int>{1});
  EXPECT_TRUE(a.Accepts(*r.witness));
  EXPECT_FALSE(b.Accepts(*r.witness));
}

TEST(NtaIncluded, SubsumptionPruneFiresOnGrowingMacrostate) {
  // b's macrostate grows from {0} to {0,1} along the unary step; the
  // antichain discards the superset, so exactly one pair and one
  // macrostate are ever interned.
  Nta b(1);
  b.AddState();
  b.AddState();
  b.AddLeaf(NtaLabelA(), 0);
  b.AddUnary(NtaLabelA(), EdgeLabel{}, 0, 0);
  b.AddUnary(NtaLabelA(), EdgeLabel{}, 0, 1);
  b.AddFinal(0);
  Nta a(1);
  a.AddState();
  a.AddLeaf(NtaLabelA(), 0);
  a.AddUnary(NtaLabelA(), EdgeLabel{}, 0, 0);
  a.AddFinal(0);
  NtaInclusionResult r = NtaIncluded(a, b, MergedUniverse(a, b));
  EXPECT_TRUE(r.included);
  EXPECT_EQ(r.subsumption_prunes, 1u);
  EXPECT_EQ(r.macrostates_visited, 1u);
  EXPECT_EQ(r.pairs_explored, 1u);
}

TEST(NtaIncluded, MacrostatesStrictlyBelowDeterminizedStates) {
  // The exponential family of generator.h: determinizing b over the chain
  // universe materializes ~2^(k+1) subset states, while the antichain walk
  // against the single-chain left side keeps only O(k) macrostates.
  const int k = 5;
  Nta a = ChainOfANta(k + 1);
  Nta b = NthBelowRootIsANta(k);
  SymbolUniverse u = MergedUniverse(a, b);
  NtaInclusionResult r = NtaIncluded(a, b, u);
  EXPECT_TRUE(r.included);
  Nta det = Determinize(b, u);
  EXPECT_LT(r.macrostates_visited, det.num_states());
  // The gap is the point: well under half the determinized state count.
  EXPECT_LT(2 * r.macrostates_visited, det.num_states());
}

TEST(NtaIncluded, InclusionIsRelativeToTheUniverse) {
  // a's unary transition is invisible in a leaves-only universe, so the
  // only codes that count are single leaves — and a accepts none of them.
  Nta a = ChainOfANta(2);
  Nta b = ChainOfANta(1);
  SymbolUniverse leaves_only = SymbolsOf(b);
  EXPECT_TRUE(NtaIncluded(a, b, leaves_only).included);
  EXPECT_FALSE(NtaIncluded(a, b, MergedUniverse(a, b)).included);
}

TEST(NtaIncluded, AgreesWithExplicitRouteOnEnumeration) {
  for (unsigned seed = 0; seed < 40; ++seed) {
    Nta a = RandomNta(51000 + seed);
    Nta b = RandomNta(53000 + seed);
    SymbolUniverse u = MergedUniverse(a, b);
    NtaInclusionResult r = NtaIncluded(a, b, u);
    bool explicit_included = IsEmpty(Product(a, Complement(b, u)));
    EXPECT_EQ(r.included, explicit_included) << "seed " << seed;
    if (r.included) {
      // No enumerable code may separate them.
      for (const TreeCode& code : NtaEnumerationCodes()) {
        EXPECT_FALSE(a.Accepts(code) && !b.Accepts(code)) << "seed " << seed;
      }
    }
  }
}

// --- Thm 5 / containment counterexample pins -------------------------------
// The verdicts and counterexamples were captured while the full-fixpoint
// route still ran beside the pruned walk and matched it byte for byte;
// the counterexamples, now the derivations of the pruned walk's first bad
// pairs, are unchanged. Each counterexample must also be genuine: its
// decoding satisfies the Datalog query and no disjunct of the UCQ maps
// into it.

void ExpectGenuineCounterexample(const DatalogQuery& query, const UCQ& ucq,
                                 const TreeCode& code,
                                 const std::string& what) {
  Instance inst = code.Decode(query.program.vocab());
  EXPECT_TRUE(DatalogHoldsOn(query, inst)) << what;
  EXPECT_FALSE(ucq.HoldsOn(inst)) << what;
}

TEST(ContainmentAntichain, DatalogInUcqCounterexamplesPinned) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(R"(
    P(x) :- U(x).
    P(x) :- R(x,y), P(y).
    Goal() :- P(x).
  )",
                      "Goal", vocab, &diags);
  ASSERT_TRUE(q) << FormatDiagnostics(diags);
  // Multi-disjunct targets run UcqMatchAutomaton::SubsetOf componentwise
  // over one match universe per disjunct. `witness` is the rendered
  // counterexample, empty when contained; every failing target here is
  // refuted by the one-fact instance U(a).
  struct Target {
    std::vector<std::string> disjuncts;
    std::string witness;
  };
  const std::string u_a = "w2[|1:0=0,][1(0,)]";
  const std::vector<Target> targets = {
      {{"C() :- U(x)."}, ""},
      {{"C() :- R(x,x)."}, u_a},
      {{"C() :- R(x,y), R(y,z)."}, u_a},
      {{"C() :- R(x,y), U(y).", "C() :- U(x)."}, ""},
      {{"C() :- R(x,x).", "C() :- R(x,y), R(y,z)."}, u_a},
      {{"C() :- R(x,y), R(y,z).", "C() :- R(x,y), U(y).", "C() :- U(x)."},
       ""},
      {{"C() :- R(x,y), R(y,z).", "C() :- R(x,x).", "C() :- U(x), R(x,y)."},
       u_a},
  };
  for (const Target& target : targets) {
    UCQ ucq(vocab);
    std::string t;
    for (const std::string& d : target.disjuncts) {
      ucq.AddDisjunct(*ParseCq(d, vocab, &error));
      t += (t.empty() ? "" : " ") + d;
    }
    ContainmentResult r = DatalogContainedInUcq(*q, ucq);
    EXPECT_EQ(r.contained, target.witness.empty()) << t;
    ASSERT_EQ(r.counterexample.has_value(), !r.contained) << t;
    EXPECT_GT(r.macrostates_visited, 0u) << t;
    if (r.contained) continue;
    EXPECT_EQ(RenderCode(*r.counterexample), target.witness) << t;
    ExpectGenuineCounterexample(*q, ucq, *r.counterexample, t);
  }
}

TEST(ContainmentAntichain, Thm5CounterexamplePinnedOnGoldenCase) {
  auto vocab = MakeVocabulary();
  std::string error;
  auto q = ParseCq("Q() :- R(x,y), R(y,z).", vocab, &error);
  ASSERT_TRUE(q) << error;
  std::vector<Diagnostic> diags;
  auto def = ParseQuery("W(x) :- R(x,y).\nW(x) :- R(x,y), W(y).", "W", vocab,
                        &diags);
  ASSERT_TRUE(def) << FormatDiagnostics(diags);
  ViewSet views(vocab);
  views.AddView("VW", *def);
  Thm5Result r = CheckCqOverDatalogViews(*q, views);
  EXPECT_FALSE(r.determined);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(RenderCode(*r.counterexample),
            "w2[|1:0=0,|2:1=0,][1(0,1,)][1(0,1,)]");
  UCQ target(vocab);
  target.AddDisjunct(*q);
  ExpectGenuineCounterexample(Thm5Query(*q, views), target, *r.counterexample,
                              "golden");
  // Pinned work: one walk, stopped at its first bad pair. Its 3
  // macrostates include the pruned candidate's.
  EXPECT_EQ(CountsOf(r), (Counts{2, 3, 3, 1}));
}

TEST(ContainmentAntichain, Thm5PinnedOnRandomViewSets) {
  // One FNV-1a hash over (verdict, counterexample) of seeds 0-11.
  std::string rendered;
  for (unsigned seed = 0; seed < 12; ++seed) {
    testing::GenProfile profile = testing::EvalProfile();
    std::vector<testing::ViewSpec> specs =
        testing::RandomViewSpecs(profile, seed);
    ViewSet views = testing::BuildViews(profile.vocab, specs);
    std::string error;
    auto q = ParseCq("Q() :- E1(x), E2(x,y).", profile.vocab, &error);
    ASSERT_TRUE(q) << error;
    Thm5Result r = CheckCqOverDatalogViews(*q, views);
    ASSERT_EQ(r.counterexample.has_value(), !r.determined) << "seed " << seed;
    rendered += std::to_string(seed) + (r.determined ? " det " : " not ") +
                (r.counterexample ? RenderCode(*r.counterexample) : "-") +
                "\n";
    if (r.determined) continue;
    UCQ target(profile.vocab);
    target.AddDisjunct(*q);
    ExpectGenuineCounterexample(Thm5Query(*q, views), target,
                                *r.counterexample,
                                "seed " + std::to_string(seed));
  }
  EXPECT_EQ(testing::Fnv1a(rendered), 0x66ca41cf7fe7bb79ull) << rendered;
}

TEST(ContainmentAntichain, Thm5CounterexamplesGenuineOnRandomViewSets) {
  // Every refuted decision over RandomViewSpecs seeds 0-99 yields a
  // genuine counterexample; the floor on refutations keeps the loop from
  // passing vacuously. RandomViewSpecs cycles through three view sets
  // (seed % 3), so the loop decides six distinct inputs, two of them
  // refuted.
  size_t refuted = 0;
  for (const char* text :
       {"Q() :- E1(x), E2(x,y).", "Q() :- E2(x,y), E2(y,z)."}) {
    for (unsigned seed = 0; seed < 100; ++seed) {
      testing::GenProfile profile = testing::EvalProfile();
      ViewSet views = testing::BuildViews(
          profile.vocab, testing::RandomViewSpecs(profile, seed));
      std::string error;
      auto q = ParseCq(text, profile.vocab, &error);
      ASSERT_TRUE(q) << error;
      Thm5Result r = CheckCqOverDatalogViews(*q, views);
      const std::string what = std::string(text) + " seed " +
                               std::to_string(seed);
      ASSERT_EQ(r.counterexample.has_value(), !r.determined) << what;
      if (r.determined) continue;
      ++refuted;
      UCQ target(profile.vocab);
      target.AddDisjunct(*q);
      ExpectGenuineCounterexample(Thm5Query(*q, views), target,
                                  *r.counterexample, what);
    }
  }
  EXPECT_GE(refuted, 60u);
}

// --- Work-counter pins ------------------------------------------------------
// Every route's work counters, verdict and witness, pinned: a change to
// the walk's visiting order, dedup or prune shows up here even when
// verdicts stay equal.

TEST(WalkCounterPins, Thm5PathPlusUFamily) {
  const Counts pruned[] = {{6, 9, 5, 0},
                           {16, 33, 17, 2},
                           {63, 141, 79, 21},
                           {424, 866, 554, 189}};
  for (int n = 1; n <= 4; ++n) {
    PathPlusU f = MakePathPlusU(MakeVocabulary(), n);
    Thm5Result r = CheckCqOverDatalogViews(f.query, f.views);
    EXPECT_TRUE(r.determined) << "n=" << n;
    EXPECT_EQ(CountsOf(r), pruned[n - 1]) << "n=" << n;
  }
}

TEST(WalkCounterPins, NtaIncludedOverOracleSeeds) {
  // One FNV-1a hash over (verdict, counters, witness) on the
  // antichain-inclusion oracle's cases 0-31, then on the exponential
  // family ChainOfANta(k + 1) vs NthBelowRootIsANta(k) in both
  // directions (the not-included one prunes on every rung).
  const testing::Oracle* o = testing::FindOracle("antichain-inclusion");
  ASSERT_NE(o, nullptr);
  std::vector<std::pair<Nta, Nta>> cases;
  for (unsigned seed = 0; seed < 32; ++seed) {
    testing::FuzzCase c = o->Generate(seed);
    cases.emplace_back(*c.nta_a, *c.nta_b);
  }
  for (int k = 1; k <= 6; ++k) {
    cases.emplace_back(ChainOfANta(k + 1), NthBelowRootIsANta(k));
    cases.emplace_back(NthBelowRootIsANta(k), ChainOfANta(k + 1));
  }
  std::string rendered;
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [a, b] = cases[i];
    NtaInclusionResult r = NtaIncluded(a, b, MergedUniverse(a, b));
    rendered += std::to_string(i) + (r.included ? " in " : " out ") +
                std::to_string(r.pairs_explored) + "/" +
                std::to_string(r.transition_visits) + "/" +
                std::to_string(r.macrostates_visited) + "/" +
                std::to_string(r.subsumption_prunes) + " " +
                (r.witness ? RenderCode(*r.witness) : "-") + "\n";
  }
  EXPECT_EQ(testing::Fnv1a(rendered), 0xfd03743e64ac5b79ull) << rendered;
}

// --- Oracle and corpus integration ------------------------------------------

TEST(AntichainOracle, IsRegistered) {
  const testing::Oracle* o = testing::FindOracle("antichain-inclusion");
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->name(), "antichain-inclusion");
}

TEST(AntichainOracle, CasesRoundTripThroughCorpusFormat) {
  const testing::Oracle* o = testing::FindOracle("antichain-inclusion");
  ASSERT_NE(o, nullptr);
  for (unsigned seed = 0; seed < 25; ++seed) {
    testing::FuzzCase c = o->Generate(seed);
    std::string text = testing::SerializeCase(c);
    std::string error;
    auto parsed = testing::ParseCaseText(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    // Byte-exact round trip: reserializing the parsed case reproduces the
    // file, so automata survive the format losslessly.
    EXPECT_EQ(testing::SerializeCase(*parsed), text) << "seed " << seed;
    EXPECT_TRUE(o->Check(*parsed).ok) << "seed " << seed;
  }
}

TEST(AntichainOracle, ShrinkerReducesNtaCases) {
  // A deliberately failing "oracle" that trips whenever automaton a has a
  // binary transition: the shrinker must strip everything else away.
  class BinaryTrips : public testing::Oracle {
   public:
    std::string name() const override { return "binary-trips"; }
    testing::GenProfile Profile() const override {
      return testing::EvalProfile();
    }
    testing::FuzzCase Generate(unsigned seed) const override {
      const testing::Oracle* o = testing::FindOracle("antichain-inclusion");
      return o->Generate(seed);
    }
    testing::OracleOutcome Check(const testing::FuzzCase& c) const override {
      if (c.nta_a.has_value() && !c.nta_a->binary_transitions().empty()) {
        return {false, "has binary"};
      }
      return {true, ""};
    }
  };
  BinaryTrips oracle;
  for (unsigned seed = 0; seed < 40; ++seed) {
    testing::FuzzCase c = oracle.Generate(seed);
    if (oracle.Check(c).ok) continue;
    testing::ShrinkResult res = testing::ShrinkCase(oracle, c, 500);
    EXPECT_FALSE(oracle.Check(res.best).ok);
    // Fully shrunk: exactly the one tripping transition survives.
    EXPECT_EQ(res.best.nta_a->binary_transitions().size(), 1u);
    EXPECT_TRUE(res.best.nta_a->leaf_transitions().empty());
    EXPECT_TRUE(res.best.nta_a->unary_transitions().empty());
    return;  // one genuinely shrunk case is enough
  }
  FAIL() << "no seed produced a binary transition in a";
}

class AntichainOracleSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(AntichainOracleSeeds, Passes) {
  const testing::Oracle* o = testing::FindOracle("antichain-inclusion");
  ASSERT_NE(o, nullptr);
  testing::OracleOutcome out = o->Check(o->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AntichainOracleSeeds,
                         ::testing::Range(0u, 220u));

}  // namespace
}  // namespace mondet
