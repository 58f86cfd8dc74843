#include <gtest/gtest.h>

#include <algorithm>

#include "base/homomorphism.h"
#include "datalog/approximation.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/fragment.h"
#include "datalog/parser.h"
#include "datalog/strata.h"
#include "testing/oracle.h"
#include "testing/reference.h"
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

constexpr char kReach[] = R"(
  P(x) :- U(x).
  P(x) :- R(x,y), P(y).
  Goal(x) :- P(x).
)";

TEST(Parser, RejectsUnsafeRules) {
  auto vocab = MakeVocabulary();
  ParseResult result = ParseProgram("Goal(x) :- R(y,z).", vocab);
  EXPECT_FALSE(result.ok());
}

TEST(Parser, RejectsArityMismatch) {
  auto vocab = MakeVocabulary();
  ParseResult result = ParseProgram("Goal(x) :- R(x,y), R(x).", vocab);
  EXPECT_FALSE(result.ok());
}

TEST(Parser, ParsesComments) {
  auto vocab = MakeVocabulary();
  ParseResult result =
      ParseProgram("# header\nGoal(x) :- R(x,y). # trailing\n", vocab);
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.program->rules().size(), 1u);
}

TEST(Parser, ParsesGroundInstance) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  auto inst = ParseInstance("R(a,b). R(b,c). U(c). # done", vocab, &diags);
  ASSERT_TRUE(inst.has_value()) << FormatDiagnostics(diags);
  EXPECT_EQ(inst->num_facts(), 3u);
  EXPECT_EQ(inst->num_elements(), 3u);
  PredId r = *vocab->FindPredicate("R");
  EXPECT_EQ(inst->NumRows(r), 2u);
}

TEST(Parser, InstanceSharesElementsByName) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  auto inst = ParseInstance("R(a,a). U(a).", vocab, &diags);
  ASSERT_TRUE(inst.has_value()) << FormatDiagnostics(diags);
  EXPECT_EQ(inst->num_elements(), 1u);
}

TEST(Parser, InstanceRejectsArityMismatch) {
  auto vocab = MakeVocabulary();
  std::vector<Diagnostic> diags;
  auto inst = ParseInstance("R(a,b). R(a).", vocab, &diags);
  EXPECT_FALSE(inst.has_value());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "arity");
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(Parser, InstanceDiagnosticsCarryPositions) {
  auto vocab = MakeVocabulary();
  std::vector<Diagnostic> diags;
  auto inst = ParseInstance("R(a,b).\nR(c).", vocab, &diags);
  EXPECT_FALSE(inst.has_value());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "arity");
  EXPECT_EQ(diags[0].loc.line, 2);

  std::vector<Diagnostic> syntax;
  auto bad = ParseInstance("R(a,b).\nR(b c).", vocab, &syntax);
  EXPECT_FALSE(bad.has_value());
  ASSERT_EQ(syntax.size(), 1u);
  EXPECT_EQ(syntax[0].check, "parse");
  EXPECT_EQ(syntax[0].loc.line, 2);
  EXPECT_GT(syntax[0].loc.col, 1);

  // A fact cut off by the end of input is reported at its predicate
  // name, not at the position after the trailing newline.
  for (const char* text : {"R(a,b).\n  R(c,d\n", "R(a,b).\n  R(c,\n"}) {
    std::vector<Diagnostic> cut;
    EXPECT_FALSE(ParseInstance(text, vocab, &cut).has_value());
    ASSERT_EQ(cut.size(), 1u) << text;
    EXPECT_EQ(cut[0].check, "parse");
    EXPECT_EQ(cut[0].loc.line, 2) << text;
    EXPECT_EQ(cut[0].loc.col, 3) << text;
  }
}

TEST(Parser, UnterminatedAtomReportedAtItsPredicate) {
  auto vocab = MakeVocabulary();
  ParseResult result = ParseProgram("Goal() :- R(x,y\n", vocab);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].check, "parse");
  EXPECT_EQ(result.diagnostics[0].loc.line, 1);
  EXPECT_EQ(result.diagnostics[0].loc.col, 11);

  // The same for a list cut off right after a comma.
  std::vector<Diagnostic> diags;
  EXPECT_FALSE(ParseQuery("Goal() :- U(x),\n  R(x,\n", "Goal", vocab,
                          &diags)
                   .has_value());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].loc.line, 2);
  EXPECT_EQ(diags[0].loc.col, 3);

  // A syntax error inside a complete atom still points at the offending
  // token.
  ParseResult inner = ParseProgram("Goal() :- R(x y).\n", vocab);
  ASSERT_EQ(inner.diagnostics.size(), 1u);
  EXPECT_EQ(inner.diagnostics[0].loc.line, 1);
  EXPECT_EQ(inner.diagnostics[0].loc.col, 15);
}

TEST(Parser, QueryGoalResolutionFailureCarriesPosition) {
  auto vocab = MakeVocabulary();
  std::vector<Diagnostic> diags;
  // "R" resolves to a predicate, but an extensional one: the diagnostic
  // points at its first body occurrence (rule 1, atom 0, line 3).
  auto q = ParseQuery("P(x) :- U(x).\n\nP(y) :- R(x,y), P(x).", "R", vocab,
                      &diags);
  EXPECT_FALSE(q.has_value());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "goal");
  EXPECT_EQ(diags[0].loc.rule, 1);
  ASSERT_EQ(diags[0].loc.atoms.size(), 1u);
  EXPECT_EQ(diags[0].loc.atoms[0], 0);
  EXPECT_EQ(diags[0].loc.line, 3);

  // A goal name that never occurs anywhere still fails with the "goal"
  // check, just without a position.
  std::vector<Diagnostic> unknown;
  auto q2 = ParseQuery("P(x) :- U(x).", "Nope", vocab, &unknown);
  EXPECT_FALSE(q2.has_value());
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].check, "goal");
  EXPECT_EQ(unknown[0].loc.line, 0);

  // Parse-level failures flow through ParseQuery's diagnostics too.
  std::vector<Diagnostic> parse_fail;
  auto q3 = ParseQuery("P(x) :- U(x)", "P", vocab, &parse_fail);
  EXPECT_FALSE(q3.has_value());
  ASSERT_FALSE(parse_fail.empty());
  EXPECT_TRUE(HasErrors(parse_fail));
}

TEST(Parser, InstanceRoundTripsThroughEvaluation) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(kReach, "Goal", vocab, &diags);
  ASSERT_TRUE(q) << FormatDiagnostics(diags);
  auto inst = ParseInstance("R(a,b). R(b,c). U(c).", vocab, &diags);
  ASSERT_TRUE(inst) << FormatDiagnostics(diags);
  EXPECT_TRUE(DatalogHoldsOn(*q, *inst));
  auto no_u = ParseInstance("R(a,b). R(b,c).", vocab, &diags);
  EXPECT_FALSE(DatalogHoldsOn(*q, *no_u));
}

TEST(Eval, TransitiveReachability) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  PredId r = *vocab->FindPredicate("R");
  PredId u = *vocab->FindPredicate("U");
  Instance inst = MakePath(vocab, r, 4);  // 0->1->2->3->4
  inst.AddFact(u, {4});
  auto out = EvaluateDatalog(q, inst);
  EXPECT_EQ(out.size(), 5u);  // everyone reaches 4
  EXPECT_TRUE(DatalogHoldsOn(q, inst, {0}));
}

TEST(Eval, NoDerivationWithoutBase) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  PredId r = *vocab->FindPredicate("R");
  Instance inst = MakePath(vocab, r, 4);
  EXPECT_FALSE(DatalogHoldsOn(q, inst));
}

TEST(Eval, MutualRecursion) {
  auto vocab = MakeVocabulary();
  // Even/odd distance from a source marked S, over edges E.
  DatalogQuery q = MustParseQuery(R"(
    Even(x) :- S(x).
    Odd(y) :- E(x,y), Even(x).
    Even(y) :- E(x,y), Odd(x).
    Goal(x) :- Even(x).
  )",
                                  "Goal", vocab);
  PredId e = *vocab->FindPredicate("E");
  PredId s = *vocab->FindPredicate("S");
  Instance inst = MakePath(vocab, e, 4);
  inst.AddFact(s, {0});
  auto out = EvaluateDatalog(q, inst);
  EXPECT_TRUE(out.count({0}));
  EXPECT_FALSE(out.count({1}));
  EXPECT_TRUE(out.count({2}));
  EXPECT_TRUE(out.count({4}));
}

TEST(Eval, CycleSaturates) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    T(x,y) :- R(x,y).
    T(x,z) :- T(x,y), R(y,z).
    Goal(x,y) :- T(x,y).
  )",
                                  "Goal", vocab);
  PredId r = *vocab->FindPredicate("R");
  Instance cycle = MakeCycle(vocab, r, 3);
  auto out = EvaluateDatalog(q, cycle);
  EXPECT_EQ(out.size(), 9u);  // full transitive closure
}

TEST(Eval, ZeroAryGoalAndEmptyBody) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery("Goal.\n", "Goal", vocab);
  Instance empty(vocab);
  EXPECT_TRUE(DatalogHoldsOn(q, empty));
}

TEST(Eval, InputIdbFactsRespected) {
  // FPEval over an instance that already contains IDB facts (Prop. 4 use).
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  PredId r = *vocab->FindPredicate("R");
  PredId p = *vocab->FindPredicate("P");
  Instance inst = MakePath(vocab, r, 2);
  inst.AddFact(p, {2});
  Instance fixpoint = FpEval(q.program, inst);
  EXPECT_TRUE(fixpoint.HasFact(p, {0}));
}

// ---------- EvalFrom: the in-place continuation --------------------------

/// `got` holds exactly the facts of `want`.
void ExpectSameFacts(const Instance& want, const Instance& got) {
  EXPECT_EQ(got.num_facts(), want.num_facts());
  for (uint32_t g = 0; g < want.num_facts(); ++g) {
    EXPECT_TRUE(got.HasFact(want.FactAt(g)))
        << FactToString(want, want.FactAt(g));
  }
}

TEST(EvalFrom, FromZeroIsEvalSoEmptyBodyRulesFire) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    Start.
    P(x) :- U(x), Start().
    P(x) :- R(x,y), P(y).
    Goal() :- P(x).
  )",
                                  "Goal", vocab);
  const CompiledProgram compiled(q.program);
  Instance empty(vocab);
  empty.EnsureElements(2);
  compiled.EvalFrom(empty, 0);
  EXPECT_EQ(empty.AllFacts(), compiled.Eval(Instance(vocab)).AllFacts());
  EXPECT_TRUE(empty.HasFact(*vocab->FindPredicate("Start"),
                            std::vector<ElemId>{}));

  PredId r = *vocab->FindPredicate("R");
  PredId u = *vocab->FindPredicate("U");
  Instance inst = MakePath(vocab, r, 3);
  inst.AddFact(u, {3});
  EvalStats want_stats, got_stats;
  const Instance want = compiled.Eval(inst, &want_stats);
  compiled.EvalFrom(inst, 0, &got_stats);
  EXPECT_EQ(inst.AllFacts(), want.AllFacts());  // the same sequence
  EXPECT_EQ(got_stats.iterations, want_stats.iterations);
  EXPECT_EQ(got_stats.facts_derived, want_stats.facts_derived);
  EXPECT_EQ(got_stats.join_probes, want_stats.join_probes);
}

TEST(EvalFrom, SeedsNewFactsOfLowerStrataAndOfTheStratumItself) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  const CompiledProgram compiled(q.program);
  PredId r = *vocab->FindPredicate("R");
  PredId u = *vocab->FindPredicate("U");
  PredId p = *vocab->FindPredicate("P");
  PredId goal = *vocab->FindPredicate("Goal");
  // 0 -> 1 -> 2 -> 3 and 4 -> 5, with U(5): only 4 and 5 reach U.
  Instance inst(vocab);
  inst.EnsureElements(6);
  for (ElemId x : {0u, 1u, 2u, 4u}) inst.AddFact(r, {x, x + 1});
  inst.AddFact(u, {5});
  Instance whole = inst;
  compiled.EvalFrom(inst, 0);
  EXPECT_FALSE(inst.HasFact(p, {0}));
  EXPECT_TRUE(inst.HasFact(goal, {4}));

  // New input facts after the split: P(3), of the recursive stratum's own
  // IDB, and R(5,0), an EDB edge joining the chains.
  const uint32_t first_new = static_cast<uint32_t>(inst.num_facts());
  for (const Fact& f : {Fact(p, {3}), Fact(r, {5, 0})}) {
    ASSERT_TRUE(inst.AddFact(f));
    whole.AddFact(f);
  }
  EvalStats stats;
  compiled.EvalFrom(inst, first_new, &stats);
  ExpectSameFacts(NaiveFpEval(q.program, whole), inst);
  EXPECT_TRUE(inst.HasFact(goal, {0}));
  // The run counts exactly the facts it added, none of the fixpoint's.
  EXPECT_EQ(stats.facts_derived, inst.num_facts() - first_new - 2);
}

TEST(EvalFrom, LargeContinuationPlansLive) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    T(x,y) :- E(x,y).
    T(x,z) :- T(x,y), E(y,z).
    Goal(x) :- T(x,x).
  )",
                                  "Goal", vocab);
  const CompiledProgram compiled(q.program);
  PredId e = *vocab->FindPredicate("E");
  const Instance whole = RandomInstance(vocab, {e}, 30, 150, 11);
  Instance inst(vocab);
  inst.EnsureElements(whole.num_elements());
  const uint32_t split = 40;
  for (uint32_t g = 0; g < split; ++g) inst.AddFact(whole.FactAt(g));
  compiled.EvalFrom(inst, 0);
  const uint32_t first_new = static_cast<uint32_t>(inst.num_facts());
  for (uint32_t g = split; g < whole.num_facts(); ++g) {
    inst.AddFact(whole.FactAt(g));
  }
  ASSERT_GE(inst.num_facts() - first_new, EvalOptions{}.stats_min_facts);
  EvalStats stats;
  compiled.EvalFrom(inst, first_new, &stats);
  EXPECT_GT(stats.stats_facts_counted, 0u);  // planned from live statistics
  ExpectSameFacts(compiled.Eval(whole), inst);
}

TEST(Fragment, MonadicDetection) {
  auto vocab = MakeVocabulary();
  DatalogQuery mdl = MustParseQuery(kReach, "Goal", vocab);
  EXPECT_TRUE(IsMonadic(mdl.program));
  auto vocab2 = MakeVocabulary();
  DatalogQuery binary = MustParseQuery(R"(
    T(x,y) :- R(x,y).
    Goal() :- T(x,y).
  )",
                                       "Goal", vocab2);
  EXPECT_FALSE(IsMonadic(binary.program));
}

TEST(Fragment, FrontierGuardedDetection) {
  auto vocab = MakeVocabulary();
  // Head variables x,y co-occur in the extensional atom R(x,y): guarded.
  DatalogQuery fg = MustParseQuery(R"(
    T(x,y) :- R(x,y).
    T(x,y) :- R(x,y), T(y,z).
    Goal() :- T(x,y).
  )",
                                   "Goal", vocab);
  EXPECT_TRUE(IsFrontierGuarded(fg.program));
  auto vocab2 = MakeVocabulary();
  // Transitive closure is NOT frontier-guarded: head vars x,z never
  // co-occur in an extensional atom of the recursive rule.
  DatalogQuery tc = MustParseQuery(R"(
    T(x,y) :- R(x,y).
    T(x,z) :- T(x,y), R(y,z).
    Goal() :- T(x,y).
  )",
                                   "Goal", vocab2);
  EXPECT_FALSE(IsFrontierGuarded(tc.program));
  // Monadic programs count as frontier-guarded by convention.
  auto vocab3 = MakeVocabulary();
  DatalogQuery mdl = MustParseQuery("P(x) :- P2(x).\nP2(x) :- U(x).\nGoal(x) :- P(x).", "Goal", vocab3);
  EXPECT_TRUE(IsFrontierGuarded(mdl.program));
}

TEST(Fragment, NonRecursiveAndUnfolding) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    P(x) :- R(x,y), S(y).
    P(x) :- S(x).
    Goal() :- P(x), S(x).
  )",
                                  "Goal", vocab);
  EXPECT_TRUE(IsNonRecursive(q.program));
  UCQ ucq = UnfoldToUcq(q);
  EXPECT_EQ(ucq.disjuncts().size(), 2u);
  // Recursive program detected.
  auto vocab2 = MakeVocabulary();
  DatalogQuery rec = MustParseQuery(kReach, "Goal", vocab2);
  EXPECT_FALSE(IsNonRecursive(rec.program));
}

TEST(Approximation, EnumeratesReachExpansions) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  std::vector<Expansion> expansions;
  bool exhaustive = EnumerateExpansions(q, 4, 1000, [&](const Expansion& e) {
    expansions.push_back(e);
    return true;
  });
  EXPECT_TRUE(exhaustive);
  // Depth 4 gives goal->P chains of length 0..2: U(x); R+U; R+R+U.
  ASSERT_EQ(expansions.size(), 3u);
  // Each expansion satisfies the query on its own canonical database.
  for (const Expansion& e : expansions) {
    EXPECT_TRUE(DatalogHoldsOn(q, e.inst));
    EXPECT_EQ(e.frontier.size(), 1u);
  }
}

TEST(Approximation, ExpansionsMapIntoSatisfyingInstances) {
  // Prop. 1: I |= Q iff some approximation maps into I.
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  PredId r = *vocab->FindPredicate("R");
  PredId u = *vocab->FindPredicate("U");
  Instance inst = MakePath(vocab, r, 3);
  inst.AddFact(u, {3});
  bool found = false;
  EnumerateExpansions(q, 6, 1000, [&](const Expansion& e) {
    HomSearch search(e.inst, inst);
    if (search.Exists({{e.frontier[0], 0}})) found = true;
    return !found;
  });
  EXPECT_TRUE(found);
}

TEST(Approximation, RepeatedHeadVarsUnify) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    P(x,x) :- S(x).
    Goal() :- R(a,b), P(a,b).
  )",
                                  "Goal", vocab);
  std::vector<Expansion> expansions;
  EnumerateExpansions(q, 3, 10, [&](const Expansion& e) {
    expansions.push_back(e);
    return true;
  });
  ASSERT_EQ(expansions.size(), 1u);
  // a and b were unified: R(a,a), S(a) over a single element.
  EXPECT_EQ(expansions[0].inst.num_elements(), 1u);
  EXPECT_EQ(expansions[0].inst.num_facts(), 2u);
}

TEST(Approximation, DepthLimitsRespected) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  size_t count = 0;
  bool exhaustive =
      EnumerateExpansions(q, 20, 5, [&](const Expansion&) {
        ++count;
        return true;
      });
  EXPECT_FALSE(exhaustive);  // cap of 5 hit before depth 20 exhausted
  EXPECT_EQ(count, 5u);
}

// --- Stratify: the one stratification every reader shares. -----------------

Program MustParseProgram(const std::string& text, const VocabularyPtr& vocab) {
  ParseResult parsed = ParseProgram(text, vocab);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return *parsed.program;
}

PredId Pred(const VocabularyPtr& vocab, const std::string& name) {
  return *vocab->FindPredicate(name);
}

using Atoms = std::vector<int>;
using Rules = std::vector<uint32_t>;

TEST(Stratify, TransitiveClosure) {
  auto vocab = MakeVocabulary();
  Stratification s = Stratify(MustParseProgram(R"(
    T(x,y) :- E(x,y).
    T(x,z) :- T(x,y), E(y,z).
  )",
                                               vocab));
  ASSERT_EQ(s.strata.size(), 1u);
  EXPECT_EQ(s.strata[0].rules, (Rules{0, 1}));
  EXPECT_EQ(s.strata[0].preds, std::vector<PredId>{Pred(vocab, "T")});
  EXPECT_TRUE(s.strata[0].recursive);
  EXPECT_EQ(s.stratum_of.at(Pred(vocab, "T")), 0u);
  EXPECT_EQ(s.recursive_atoms, (std::vector<Atoms>{{}, {0}}));
}

TEST(Stratify, MutualRecursionSharesOneStratum) {
  auto vocab = MakeVocabulary();
  Stratification s = Stratify(MustParseProgram(R"(
    Goal() :- A(x).
    A(x) :- U(x).
    A(x) :- R(x,y), B(y).
    B(x) :- R(x,y), A(y).
  )",
                                               vocab));
  const PredId goal = Pred(vocab, "Goal");
  const PredId a = Pred(vocab, "A");
  const PredId b = Pred(vocab, "B");
  ASSERT_LT(a, b);
  // Dependency-first: {A, B} before the Goal that reads them, whatever
  // the rule order.
  ASSERT_EQ(s.strata.size(), 2u);
  EXPECT_EQ(s.strata[0].rules, (Rules{1, 2, 3}));
  EXPECT_EQ(s.strata[0].preds, (std::vector<PredId>{a, b}));
  EXPECT_TRUE(s.strata[0].recursive);
  EXPECT_EQ(s.strata[1].rules, (Rules{0}));
  EXPECT_EQ(s.strata[1].preds, std::vector<PredId>{goal});
  EXPECT_FALSE(s.strata[1].recursive);
  EXPECT_EQ(s.stratum_of.at(a), 0u);
  EXPECT_EQ(s.stratum_of.at(b), 0u);
  EXPECT_EQ(s.stratum_of.at(goal), 1u);
  EXPECT_EQ(s.recursive_atoms, (std::vector<Atoms>{{}, {}, {1}, {1}}));
}

TEST(Stratify, SelfLoopIsRecursive) {
  auto vocab = MakeVocabulary();
  Stratification s = Stratify(MustParseProgram(R"(
    P(x) :- U(x).
    P(x) :- P(x), U(x).
    Q(x) :- P(x).
  )",
                                               vocab));
  ASSERT_EQ(s.strata.size(), 2u);
  EXPECT_EQ(s.strata[0].preds, std::vector<PredId>{Pred(vocab, "P")});
  EXPECT_TRUE(s.strata[0].recursive);
  EXPECT_EQ(s.strata[1].preds, std::vector<PredId>{Pred(vocab, "Q")});
  EXPECT_FALSE(s.strata[1].recursive);
  EXPECT_EQ(s.recursive_atoms, (std::vector<Atoms>{{}, {0}, {}}));
}

TEST(Stratify, NonRecursiveChainOneStratumPerIdb) {
  auto vocab = MakeVocabulary();
  Stratification s = Stratify(MustParseProgram(R"(
    C(x) :- B(x), U(x).
    B(x) :- A(x).
    A(x) :- U(x).
  )",
                                               vocab));
  ASSERT_EQ(s.strata.size(), 3u);
  const char* order[] = {"A", "B", "C"};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(s.strata[i].preds, std::vector<PredId>{Pred(vocab, order[i])});
    EXPECT_EQ(s.strata[i].rules, (Rules{static_cast<uint32_t>(2 - i)}));
    EXPECT_FALSE(s.strata[i].recursive);
  }
  EXPECT_EQ(s.recursive_atoms, (std::vector<Atoms>{{}, {}, {}}));
}

TEST(Stratify, LowerStratumAtomIsNotRecursive) {
  // Goal reads the recursive T from a later stratum: T's atoms in Goal's
  // rule are not delta seats.
  auto vocab = MakeVocabulary();
  Stratification s = Stratify(MustParseProgram(R"(
    T(x,y) :- E(x,y).
    T(x,z) :- T(x,y), E(y,z).
    Goal() :- T(x,y), T(y,x).
  )",
                                               vocab));
  ASSERT_EQ(s.strata.size(), 2u);
  EXPECT_EQ(s.stratum_of.at(Pred(vocab, "T")), 0u);
  EXPECT_EQ(s.stratum_of.at(Pred(vocab, "Goal")), 1u);
  EXPECT_EQ(s.strata[1].rules, (Rules{2}));
  EXPECT_FALSE(s.strata[1].recursive);
  EXPECT_EQ(s.recursive_atoms, (std::vector<Atoms>{{}, {0}, {}}));
}

TEST(Stratify, NonLinearRuleListsBothAtoms) {
  auto vocab = MakeVocabulary();
  Stratification s = Stratify(MustParseProgram(R"(
    T(x,y) :- E(x,y).
    T(x,z) :- T(x,y), E(y,w), T(y,z).
  )",
                                               vocab));
  ASSERT_EQ(s.strata.size(), 1u);
  EXPECT_EQ(s.recursive_atoms, (std::vector<Atoms>{{}, {0, 2}}));
}

TEST(Stratify, GeneratedProgramsReadOnlyLowerOrOwnStrata) {
  // Over the eval-differential generator's programs: every body IDB
  // atom's stratum is at most its head's, with equality exactly for the
  // listed recursive atoms; strata partition the rules and IDBs.
  const testing::Oracle* oracle = testing::FindOracle("eval-differential");
  ASSERT_NE(oracle, nullptr);
  for (unsigned seed = 0; seed < 200; ++seed) {
    const Program program = *oracle->Generate(seed).program;
    const Stratification s = Stratify(program);
    ASSERT_EQ(s.recursive_atoms.size(), program.rules().size());
    size_t rules_seen = 0, preds_seen = 0;
    for (size_t si = 0; si < s.strata.size(); ++si) {
      const Stratification::Stratum& st = s.strata[si];
      EXPECT_TRUE(std::is_sorted(st.preds.begin(), st.preds.end()));
      EXPECT_TRUE(std::is_sorted(st.rules.begin(), st.rules.end()));
      for (PredId p : st.preds) EXPECT_EQ(s.stratum_of.at(p), si);
      bool recursive = false;
      for (uint32_t ri : st.rules) {
        EXPECT_EQ(s.stratum_of.at(program.rules()[ri].head.pred), si);
        recursive = recursive || !s.recursive_atoms[ri].empty();
      }
      EXPECT_EQ(st.recursive, recursive) << "seed " << seed;
      rules_seen += st.rules.size();
      preds_seen += st.preds.size();
    }
    EXPECT_EQ(rules_seen, program.rules().size());
    EXPECT_EQ(preds_seen, program.Idbs().size());
    for (size_t ri = 0; ri < program.rules().size(); ++ri) {
      const Rule& rule = program.rules()[ri];
      const size_t head = s.stratum_of.at(rule.head.pred);
      Atoms same;
      for (size_t ai = 0; ai < rule.body.size(); ++ai) {
        auto it = s.stratum_of.find(rule.body[ai].pred);
        if (it == s.stratum_of.end()) continue;  // EDB
        EXPECT_LE(it->second, head) << "seed " << seed << " rule " << ri;
        if (it->second == head) same.push_back(static_cast<int>(ai));
      }
      EXPECT_EQ(same, s.recursive_atoms[ri]) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mondet
