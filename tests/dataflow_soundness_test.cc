// Soundness test for the abstract-interpretation dataflow analyses
// (analysis/dataflow.h):
//
//   * randomized arm — the concrete fixpoint is contained in the
//     concretization of the abstract emptiness/constant-set fixpoint,
//     rules flagged dead never fire, and dropping subsumed rules /
//     redundant atoms preserves the fixpoint.
//     The generator and checker live in the shared randomized-testing
//     library (testing/oracle.h, oracle `dataflow-soundness`);
//     `mondet-fuzz` drives the same property over open-ended seed ranges
//     with shrinking.
//   * deterministic arm — hand-built adornment, emptiness and
//     subsumption cases with exact expected analysis output.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "base/instance.h"
#include "base/symbol_table.h"
#include "datalog/program.h"
#include "testing/oracle.h"

namespace mondet {
namespace {

class DataflowSoundness : public ::testing::TestWithParam<unsigned> {};

TEST_P(DataflowSoundness, AnalysesSoundAndPruningInvisible) {
  const testing::Oracle* oracle = testing::FindOracle("dataflow-soundness");
  ASSERT_NE(oracle, nullptr);
  testing::OracleOutcome out = oracle->Check(oracle->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowSoundness,
                         ::testing::Range(0u, 220u));

// --- Deterministic cases. ---------------------------------------------------

// Transitive closure with a disconnected helper: the goal binds its
// argument, the helper's body atom is reached all-free.
TEST(DataflowAdornment, PropagatesBindingsLeftToRight) {
  VocabularyPtr vocab = MakeVocabulary();
  PredId e = vocab->AddPredicate("E", 2);
  PredId t = vocab->AddPredicate("T", 2);
  PredId a = vocab->AddPredicate("A", 1);
  PredId b = vocab->AddPredicate("B", 1);
  Program program(vocab);
  // T(x,y) :- E(x,y).        T(x,y) :- E(x,z), T(z,y).
  program.AddRule(Rule{QAtom(t, {0, 1}), {QAtom(e, {0, 1})}, {"x", "y"}});
  program.AddRule(Rule{QAtom(t, {0, 1}),
                       {QAtom(e, {0, 2}), QAtom(t, {2, 1})},
                       {"x", "y", "z"}});
  // A(x) :- B(y), T(y,x).    B(x) :- E(x,x).
  program.AddRule(Rule{QAtom(a, {0}), {QAtom(b, {1}), QAtom(t, {1, 0})},
                       {"x", "y"}});
  program.AddRule(Rule{QAtom(b, {0}), {QAtom(e, {0, 0})}, {"x"}});

  AdornmentResult ad = AnalyzeAdornments(program, a);
  EXPECT_TRUE(ad.goal_binds);
  ASSERT_TRUE(ad.calls.count(a));
  EXPECT_EQ(ad.calls.at(a), std::set<std::string>{"b"});
  // B is called before any of its variables is bound.
  ASSERT_TRUE(ad.calls.count(b));
  EXPECT_EQ(ad.calls.at(b), std::set<std::string>{"f"});
  // T is called "bb" from rule 2 (y bound by the B atom, x by the goal);
  // the recursive rule re-calls it "bb" (z bound by E, y by the head),
  // so no weaker pattern ever appears.
  ASSERT_TRUE(ad.calls.count(t));
  EXPECT_EQ(ad.calls.at(t), std::set<std::string>{"bb"});
  // The call sites record the same patterns.
  EXPECT_EQ(ad.atom_calls.at({2, 0}), std::set<std::string>{"f"});
  EXPECT_EQ(ad.atom_calls.at({2, 1}), std::set<std::string>{"bb"});
}

TEST(DataflowAdornment, NullaryGoalDoesNotBind) {
  VocabularyPtr vocab = MakeVocabulary();
  PredId e = vocab->AddPredicate("E", 2);
  PredId g = vocab->AddPredicate("G", 0);
  Program program(vocab);
  program.AddRule(Rule{QAtom(g, {}), {QAtom(e, {0, 1})}, {"x", "y"}});
  AdornmentResult ad = AnalyzeAdornments(program, g);
  EXPECT_FALSE(ad.goal_binds);
  EXPECT_EQ(ad.calls.at(g), std::set<std::string>{""});
}

// Recursion without a base case is provably empty even with no instance.
TEST(DataflowEmptiness, RecursionWithoutBaseCaseIsEmpty) {
  VocabularyPtr vocab = MakeVocabulary();
  PredId e = vocab->AddPredicate("E", 2);
  PredId p = vocab->AddPredicate("P", 1);
  PredId q = vocab->AddPredicate("Q", 1);
  Program program(vocab);
  // P(x) :- E(x,y), P(y).   Q(x) :- P(x).
  program.AddRule(Rule{QAtom(p, {0}), {QAtom(e, {0, 1}), QAtom(p, {1})},
                       {"x", "y"}});
  program.AddRule(Rule{QAtom(q, {0}), {QAtom(p, {0})}, {"x"}});
  EmptinessResult er = AnalyzeEmptiness(program, nullptr);
  EXPECT_TRUE(er.IsEmpty(p));
  EXPECT_TRUE(er.IsEmpty(q));
  EXPECT_EQ(er.empty_idbs, (std::vector<PredId>{p, q}));
  EXPECT_TRUE(er.rule_dead[0]);
  EXPECT_TRUE(er.rule_dead[1]);
  // The EDB is unconstrained without a seed.
  EXPECT_FALSE(er.IsEmpty(e));
}

// A seeded instance restricts EDB positions to small constant sets, and
// the meet over a shared variable can prove a rule dead even though every
// body predicate is nonempty.
TEST(DataflowEmptiness, DisjointConstantSetsKillRule) {
  VocabularyPtr vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 1);
  PredId t = vocab->AddPredicate("S", 1);
  PredId h = vocab->AddPredicate("H", 1);
  Program program(vocab);
  // H(x) :- R(x), S(x).
  program.AddRule(Rule{QAtom(h, {0}), {QAtom(r, {0}), QAtom(t, {0})},
                       {"x"}});
  Instance inst(vocab);
  ElemId a = inst.AddElement(), b = inst.AddElement();
  inst.AddFact(r, {a});
  inst.AddFact(t, {b});
  EmptinessResult er = AnalyzeEmptiness(program, &inst);
  EXPECT_TRUE(er.rule_dead[0]);
  EXPECT_TRUE(er.IsEmpty(h));
  EXPECT_FALSE(er.IsEmpty(r));
  // Same program over an overlapping seed: live.
  inst.AddFact(t, {a});
  EmptinessResult er2 = AnalyzeEmptiness(program, &inst);
  EXPECT_FALSE(er2.rule_dead[0]);
  EXPECT_FALSE(er2.IsEmpty(h));
}

// Classic subsumption: a rule with an extra body atom is subsumed by the
// unconstrained rule, and a duplicated atom is redundant.
TEST(DataflowSubsumption, DetectsSubsumedRuleAndRedundantAtom) {
  VocabularyPtr vocab = MakeVocabulary();
  PredId e = vocab->AddPredicate("E", 2);
  PredId p = vocab->AddPredicate("P", 2);
  Program program(vocab);
  // P(x,y) :- E(x,y).            (rule 0)
  // P(x,y) :- E(x,y), E(y,z).    (rule 1: subsumed by rule 0)
  // P(x,y) :- E(x,y), E(x,y).    (rule 2: atom 1 redundant; also subsumed)
  program.AddRule(Rule{QAtom(p, {0, 1}), {QAtom(e, {0, 1})}, {"x", "y"}});
  program.AddRule(Rule{QAtom(p, {0, 1}),
                       {QAtom(e, {0, 1}), QAtom(e, {1, 2})},
                       {"x", "y", "z"}});
  program.AddRule(Rule{QAtom(p, {0, 1}),
                       {QAtom(e, {0, 1}), QAtom(e, {0, 1})},
                       {"x", "y"}});
  SubsumptionResult sr = AnalyzeSubsumption(program);
  EXPECT_EQ(sr.subsumed_by[0], -1);
  EXPECT_EQ(sr.subsumed_by[1], 0);
  EXPECT_EQ(sr.subsumed_by[2], 0);
  EXPECT_TRUE(sr.redundant_atoms[0].empty());
  EXPECT_TRUE(sr.redundant_atoms[1].empty());
  ASSERT_FALSE(sr.redundant_atoms[2].empty());
}

}  // namespace
}  // namespace mondet
