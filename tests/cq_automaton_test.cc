#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "automata/product_walk.h"
#include "core/cq_automaton.h"
#include "core/forward.h"
#include "core/mondet_check.h"
#include "datalog/parser.h"
#include "datalog/eval.h"
#include "testing/generator.h"
#include "tests/test_util.h"
#include "tree/code.h"
#include "tree/decompose.h"

namespace mondet {
namespace {

/// Runs the CQ DP over a concrete code bottom-up.
bool DpAccepts(CqMatchAutomaton& dp, const TreeCode& code) {
  std::vector<uint32_t> state(code.nodes.size());
  std::function<void(int)> visit = [&](int u) {
    const CodeNode& node = code.nodes[u];
    for (int c : node.children) visit(c);
    NodeLabel label(node.atoms.begin(), node.atoms.end());
    if (node.children.empty()) {
      state[u] = dp.Leaf(label);
    } else if (node.children.size() == 1) {
      state[u] = dp.Unary(state[node.children[0]], label, node.edge_labels[0]);
    } else {
      state[u] = dp.Binary(state[node.children[0]], state[node.children[1]],
                           label, node.edge_labels[0], node.edge_labels[1]);
    }
  };
  visit(0);
  return dp.Accepting(state[0]);
}

/// DP agrees with direct evaluation on the decoded instance.
void ExpectDpMatchesEvaluation(const CQ& cq, const Instance& inst) {
  TreeDecomposition td = Binarize(DecomposeMinFill(inst));
  TreeCode code = EncodeInstance(inst, td, td.width());
  CqMatchAutomaton dp(cq, td.width());
  EXPECT_EQ(DpAccepts(dp, code), cq.HoldsOn(inst)) << inst.DebugString();
}

TEST(CqAutomaton, PathQueries) {
  auto vocab = MakeVocabulary();
  std::string error;
  CQ path2 = *ParseCq("Q() :- R(x,y), R(y,z).", vocab, &error);
  PredId r = *vocab->FindPredicate("R");
  ExpectDpMatchesEvaluation(path2, MakePath(vocab, r, 1));  // false
  ExpectDpMatchesEvaluation(path2, MakePath(vocab, r, 2));  // true
  ExpectDpMatchesEvaluation(path2, MakePath(vocab, r, 7));  // true
}

TEST(CqAutomaton, LoopQuery) {
  auto vocab = MakeVocabulary();
  std::string error;
  CQ loop = *ParseCq("Q() :- R(x,x).", vocab, &error);
  PredId r = *vocab->FindPredicate("R");
  ExpectDpMatchesEvaluation(loop, MakePath(vocab, r, 4));
  Instance with_loop = MakePath(vocab, r, 2);
  with_loop.AddFact(r, {1, 1});
  ExpectDpMatchesEvaluation(loop, with_loop);
}

TEST(CqAutomaton, CrossBagJoins) {
  // Variables shared between atoms witnessed in different bags.
  auto vocab = MakeVocabulary();
  std::string error;
  CQ fork = *ParseCq("Q() :- R(x,y), R(x,z), U(y), M(z).", vocab, &error);
  PredId r = *vocab->FindPredicate("R");
  PredId u = *vocab->FindPredicate("U");
  PredId m = *vocab->FindPredicate("M");
  Instance inst(vocab);
  ElemId a = inst.AddElement();
  ElemId b = inst.AddElement();
  ElemId c = inst.AddElement();
  inst.AddFact(r, {a, b});
  inst.AddFact(r, {a, c});
  inst.AddFact(u, {b});
  inst.AddFact(m, {c});
  ExpectDpMatchesEvaluation(fork, inst);
  // Remove M: query now false.
  Instance inst2(vocab);
  inst2.EnsureElements(3);
  inst2.AddFact(r, {a, b});
  inst2.AddFact(r, {a, c});
  inst2.AddFact(u, {b});
  ExpectDpMatchesEvaluation(fork, inst2);
}

TEST(CqAutomaton, TrivialQueryAlwaysAccepts) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  CQ trivial(vocab);
  ExpectDpMatchesEvaluation(trivial, MakePath(vocab, r, 2));
}

TEST(CqAutomatonProperty, RandomInstancesAgree) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<CQ> queries;
  queries.push_back(*ParseCq("Q() :- R(x,y), R(y,x).", vocab, &error));
  queries.push_back(*ParseCq("Q() :- R(x,y), U(x), U(y).", vocab, &error));
  queries.push_back(*ParseCq("Q() :- R(x,y), R(y,z), R(z,x).", vocab, &error));
  PredId r = *vocab->FindPredicate("R");
  PredId u = *vocab->FindPredicate("U");
  for (unsigned seed = 0; seed < 25; ++seed) {
    Instance inst = RandomInstance(vocab, {r, u}, 5, 8, 300 + seed);
    for (CQ& cq : queries) {
      ExpectDpMatchesEvaluation(cq, inst);
    }
  }
}

TEST(Containment, DatalogInCq) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  // Reach-query whose every expansion ends with U: contained in ∃x U(x).
  auto q = ParseQuery(R"(
    P(x) :- U(x).
    P(x) :- R(x,y), P(y).
    Goal() :- P(x).
  )",
                      "Goal", vocab, &diags);
  ASSERT_TRUE(q) << FormatDiagnostics(diags);
  UCQ has_u(vocab);
  has_u.AddDisjunct(*ParseCq("C() :- U(x).", vocab, &error));
  ContainmentResult result = DatalogContainedInUcq(*q, has_u);
  EXPECT_TRUE(result.contained);

  // Not contained in ∃x R(x,x) — the base expansion has no R at all.
  UCQ has_loop(vocab);
  has_loop.AddDisjunct(*ParseCq("C() :- R(x,x).", vocab, &error));
  ContainmentResult neg = DatalogContainedInUcq(*q, has_loop);
  EXPECT_FALSE(neg.contained);
  ASSERT_TRUE(neg.counterexample.has_value());
  // The counterexample decodes to an expansion violating the CQ.
  Instance decoded = neg.counterexample->Decode(vocab);
  EXPECT_FALSE(has_loop.HoldsOn(decoded));
  EXPECT_TRUE(DatalogHoldsOn(*q, decoded));
}

TEST(Containment, DatalogInUcqMultiDisjunct) {
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
  // Every expansion either is a bare U or contains an R-edge.
  UCQ cover(vocab);
  cover.AddDisjunct(*ParseCq("C() :- R(x,y).", vocab, &error));
  cover.AddDisjunct(*ParseCq("C() :- U(x).", vocab, &error));
  EXPECT_TRUE(DatalogContainedInUcq(*q, cover).contained);
  // But not every expansion has two R-edges or a bare U... the singleton
  // R-chain of length one is a counterexample.
  UCQ wrong(vocab);
  wrong.AddDisjunct(*ParseCq("C() :- R(x,y), R(y,z).", vocab, &error));
  EXPECT_FALSE(DatalogContainedInUcq(*q, wrong).contained);
}

// --- The right-automaton contract of automata/product_walk.h --------------

/// Checks the contract the product walk's antichain prune relies on, over
/// the DP states an unpruned walk of Thm 5's Q'' against Q interns:
/// SubsetOf is a partial order on state ids (reflexive, transitive, and
/// mutual inclusion means one id, so no set is stored under two
/// encodings), Accepting is upward closed, and Unary/Binary along every
/// NTA transition are monotone. The sample takes the first and the last
/// states interned — before and after the match universe grew — plus a
/// fixed-seed draw, and then every state the monotonicity probes intern.
void ExpectRightContract(const CQ& query, const ViewSet& views,
                         unsigned seed, const std::string& what) {
  ForwardResult fwd = ApproximationAutomaton(Thm5Query(query, views));
  const Nta& nta = fwd.automaton;
  CqMatchAutomaton dp(query, fwd.width);
  ProductWalk(nta, dp, /*prune=*/false);
  const uint32_t walked = static_cast<uint32_t>(dp.num_states());
  ASSERT_GE(walked, 2u) << what;
  std::mt19937 rng(seed);
  std::vector<uint32_t> sample;
  for (uint32_t s = 0; s < std::min(walked, 4u); ++s) sample.push_back(s);
  for (uint32_t s = walked - std::min(walked, 4u); s < walked; ++s) {
    sample.push_back(s);
  }
  for (int i = 0; i < 24; ++i) sample.push_back(rng() % walked);
  auto dedupe = [](std::vector<uint32_t>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  dedupe(&sample);

  // Comparable pairs s ⊆ t of the sample, s != t first, then reflexive.
  std::vector<std::pair<uint32_t, uint32_t>> below;
  for (uint32_t s : sample) {
    for (uint32_t t : sample) {
      if (s != t && dp.SubsetOf(s, t)) below.emplace_back(s, t);
    }
  }
  for (uint32_t s : sample) below.emplace_back(s, s);
  ASSERT_GT(below.size(), sample.size()) << what << ": no strict pair";

  // Monotonicity probes: a bounded, fixed-seed draw of comparable pairs
  // through every unary and binary transition of the NTA.
  std::vector<uint32_t> probed;
  auto pick = [&] { return below[rng() % below.size()]; };
  for (const auto& t : nta.unary_transitions()) {
    for (int k = 0; k < 16; ++k) {
      const auto [s, u] = pick();
      const uint32_t fs = dp.Unary(s, t.label, t.edge);
      const uint32_t fu = dp.Unary(u, t.label, t.edge);
      EXPECT_TRUE(dp.SubsetOf(fs, fu))
          << what << ": Unary " << s << " <= " << u;
      probed.push_back(fs);
      probed.push_back(fu);
    }
  }
  for (const auto& t : nta.binary_transitions()) {
    for (int k = 0; k < 8; ++k) {
      const auto [s1, u1] = pick();
      const auto [s2, u2] = pick();
      const uint32_t fs = dp.Binary(s1, s2, t.label, t.edge1, t.edge2);
      const uint32_t fu = dp.Binary(u1, u2, t.label, t.edge1, t.edge2);
      EXPECT_TRUE(dp.SubsetOf(fs, fu))
          << what << ": Binary (" << s1 << "," << s2 << ") <= (" << u1
          << "," << u2 << ")";
      probed.push_back(fs);
      probed.push_back(fu);
    }
  }
  sample.insert(sample.end(), probed.begin(), probed.end());
  dedupe(&sample);

  for (uint32_t s : sample) {
    EXPECT_TRUE(dp.SubsetOf(s, s)) << what << ": state " << s;
    for (uint32_t t : sample) {
      if (!dp.SubsetOf(s, t)) continue;
      if (dp.SubsetOf(t, s)) {
        EXPECT_EQ(s, t) << what << ": one set under two ids";
      }
      if (dp.Accepting(s)) {
        EXPECT_TRUE(dp.Accepting(t)) << what << ": " << s << " <= " << t;
      }
      for (uint32_t u : sample) {
        if (dp.SubsetOf(t, u)) {
          EXPECT_TRUE(dp.SubsetOf(s, u))
              << what << ": " << s << " <= " << t << " <= " << u;
        }
      }
    }
  }
}

TEST(RightAutomatonContract, PathPlusUFamily) {
  for (int n = 1; n <= 3; ++n) {
    PathPlusU f = MakePathPlusU(MakeVocabulary(), n);
    ExpectRightContract(f.query, f.views, 700 + n, "n=" + std::to_string(n));
  }
}

TEST(RightAutomatonContract, RandomViewSets) {
  // Seed 0 walks 4 DP states, the others about 90 each.
  for (unsigned seed : {0u, 2u, 5u, 8u}) {
    testing::GenProfile profile = testing::EvalProfile();
    ViewSet views = testing::BuildViews(
        profile.vocab, testing::RandomViewSpecs(profile, seed));
    std::string error;
    auto q = ParseCq("Q() :- E2(x,y), E2(y,z), E1(z).", profile.vocab, &error);
    ASSERT_TRUE(q) << error;
    ExpectRightContract(*q, views, 710 + seed,
                        "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace mondet
