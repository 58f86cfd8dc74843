#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "analysis/lint.h"
#include "core/mondet_check.h"
#include "datalog/fragment.h"
#include "datalog/normalize.h"
#include "datalog/parser.h"
#include "reductions/thm6.h"
#include "reductions/tiling.h"
#include "views/view_set.h"

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

Program MustParse(const std::string& text, const VocabularyPtr& vocab) {
  ParseResult result = ParseProgram(text, vocab);
  EXPECT_TRUE(result.ok()) << result.error;
  return *result.program;
}

std::vector<Diagnostic> WithCheck(const std::vector<Diagnostic>& diags,
                                  const std::string& check) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.check == check) out.push_back(d);
  }
  return out;
}

// Monadic + frontier-guarded + recursive (the running example of Sec. 1).
constexpr char kReach[] = R"(
  P(x) :- U(x).
  P(x) :- R(x,y), P(y).
  Goal() :- P(x).
)";

// Linear recursion over a binary IDB with no EDB guard: outside MDL and
// FGDL — the canonical witness-producing input.
constexpr char kSameGen[] = R"(
  SG(x,y) :- Flat(x,y).
  SG(x,y) :- Up(x,u), SG(u,v), Down(v,y).
  Goal() :- SG(x,y), Src(x), Dst(y).
)";

// ---------------------------------------------------------------------------
// Diagnostic plumbing

TEST(Diagnostic, FormatIncludesPositionRuleAtomsVars) {
  SourceLoc loc;
  loc.rule = 2;
  loc.atoms = {SourceLoc::kHead, 1};
  loc.vars = {"x", "y"};
  loc.line = 3;
  loc.col = 5;
  Diagnostic d = MakeDiagnostic(Severity::kError, "safety", "boom", loc);
  EXPECT_EQ(FormatDiagnostic(d),
            "error[safety] line 3:5 rule 2 (head, atom 1) {x, y}: boom");
}

TEST(Diagnostic, JsonQuoteEscapes) {
  EXPECT_EQ(JsonQuote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

TEST(Diagnostic, SeverityCounting) {
  std::vector<Diagnostic> diags = {
      MakeDiagnostic(Severity::kNote, "a", "n"),
      MakeDiagnostic(Severity::kWarning, "b", "w"),
      MakeDiagnostic(Severity::kError, "c", "e"),
  };
  EXPECT_TRUE(HasErrors(diags));
  EXPECT_EQ(CountSeverity(diags, Severity::kWarning), 1u);
  diags.pop_back();
  EXPECT_FALSE(HasErrors(diags));
}

// ---------------------------------------------------------------------------
// Parser diagnostics (safety / arity with source positions)

TEST(ParserDiagnostics, UnsafeRuleProducesSafetyDiagnostic) {
  auto vocab = MakeVocabulary();
  ParseResult result = ParseProgram("Goal(x) :- R(y,z).", vocab);
  ASSERT_FALSE(result.ok());
  auto safety = WithCheck(result.diagnostics, "safety");
  ASSERT_EQ(safety.size(), 1u);
  EXPECT_EQ(safety[0].severity, Severity::kError);
  EXPECT_EQ(safety[0].loc.rule, 0);
  EXPECT_EQ(safety[0].loc.line, 1);
  ASSERT_EQ(safety[0].loc.vars.size(), 1u);
  EXPECT_EQ(safety[0].loc.vars[0], "x");
}

TEST(ParserDiagnostics, ArityMismatchProducesArityDiagnostic) {
  auto vocab = MakeVocabulary();
  ParseResult result = ParseProgram("Goal(x) :- R(x,y).\nBad(x) :- R(x).",
                                    vocab);
  ASSERT_FALSE(result.ok());
  auto arity = WithCheck(result.diagnostics, "arity");
  ASSERT_GE(arity.size(), 1u);
  EXPECT_EQ(arity[0].loc.line, 2);
}

TEST(ParserDiagnostics, RulesRecordSourcePositions) {
  auto vocab = MakeVocabulary();
  Program p = MustParse(kReach, vocab);
  ASSERT_EQ(p.rules().size(), 3u);
  EXPECT_EQ(p.rules()[0].line, 2);
  EXPECT_EQ(p.rules()[1].line, 3);
  EXPECT_EQ(p.rules()[2].line, 4);
  EXPECT_GT(p.rules()[0].col, 0);
}

// ---------------------------------------------------------------------------
// Individual checks, positive and negative

TEST(Checks, ReachabilityFlagsUnusedPredicateAndRules) {
  auto vocab = MakeVocabulary();
  Program p = MustParse(
      "Goal() :- P(x).\n"
      "P(x) :- U(x).\n"
      "Dead(x) :- W(x).\n",
      vocab);
  AnalysisOptions options;
  options.goal = vocab->FindPredicate("Goal");
  AnalysisResult result = AnalyzeProgram(p, options);
  auto unused = WithCheck(result.diagnostics, "unused-predicate");
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_NE(unused[0].message.find("Dead"), std::string::npos);
  auto rules = WithCheck(result.diagnostics, "unreachable-rule");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].loc.rule, 2);
}

TEST(Checks, ReachabilityCleanWhenEverythingReachable) {
  auto vocab = MakeVocabulary();
  Program p = MustParse(kReach, vocab);
  AnalysisOptions options;
  options.goal = vocab->FindPredicate("Goal");
  AnalysisResult result = AnalyzeProgram(p, options);
  EXPECT_TRUE(WithCheck(result.diagnostics, "unused-predicate").empty());
  EXPECT_TRUE(WithCheck(result.diagnostics, "unreachable-rule").empty());
}

TEST(Checks, ReachabilityGoalNotIdbIsError) {
  auto vocab = MakeVocabulary();
  Program p = MustParse("Goal() :- P(x).\nP(x) :- U(x).", vocab);
  AnalysisOptions options;
  options.goal = vocab->FindPredicate("U");
  AnalysisResult result = AnalyzeProgram(p, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(WithCheck(result.diagnostics, "goal").size(), 1u);
}

TEST(Checks, SingletonVariableWarnsInMultiAtomBody) {
  auto vocab = MakeVocabulary();
  Program p = MustParse("Goal() :- R(x,y), U(x).", vocab);
  AnalysisResult result = AnalyzeProgram(p);
  auto singles = WithCheck(result.diagnostics, "singleton-variable");
  ASSERT_EQ(singles.size(), 1u);
  EXPECT_EQ(singles[0].severity, Severity::kWarning);
  ASSERT_EQ(singles[0].loc.vars.size(), 1u);
  EXPECT_EQ(singles[0].loc.vars[0], "y");
  EXPECT_EQ(singles[0].loc.atoms, std::vector<int>{0});
}

TEST(Checks, SingletonVariableExemptsProjectionsAndUnderscores) {
  auto vocab = MakeVocabulary();
  // Single-atom body: projecting away y is idiomatic, not a typo.
  Program p1 = MustParse("Goal() :- R(x,x).\nG2(x) :- R(x,y).", vocab);
  EXPECT_TRUE(
      WithCheck(AnalyzeProgram(p1).diagnostics, "singleton-variable").empty());
  // '_'-prefixed singleton in a join is deliberate.
  PredId r = vocab->AddPredicate("R", 2);
  PredId u = vocab->AddPredicate("U", 1);
  PredId goal = vocab->AddPredicate("Goal0", 0);
  Program p2(vocab);
  p2.AddRule(RuleBuilder(vocab)
                 .Head(goal, {})
                 .Atom(r, {"x", "_rest"})
                 .Atom(u, {"x"})
                 .Build());
  EXPECT_TRUE(
      WithCheck(AnalyzeProgram(p2).diagnostics, "singleton-variable").empty());
}

TEST(Checks, RecursionReportLinearVsNonLinear) {
  auto vocab = MakeVocabulary();
  Program reach = MustParse(kReach, vocab);
  RecursionReport r1 = AnalyzeRecursion(reach);
  EXPECT_TRUE(r1.recursive);
  EXPECT_TRUE(r1.linear);
  EXPECT_EQ(r1.num_strata, 2u);
  ASSERT_EQ(r1.cyclic_idbs.size(), 1u);
  EXPECT_EQ(vocab->name(r1.cyclic_idbs[0]), "P");

  auto vocab2 = MakeVocabulary();
  Program tc = MustParse(
      "T(x,y) :- E(x,y).\n"
      "T(x,z) :- T(x,y), T(y,z).\n"
      "Goal() :- T(x,y), U(x), U(y).\n",
      vocab2);
  RecursionReport r2 = AnalyzeRecursion(tc);
  EXPECT_TRUE(r2.recursive);
  EXPECT_FALSE(r2.linear);

  auto vocab3 = MakeVocabulary();
  Program flat = MustParse("Goal() :- A(x), R(x,y), B(y).", vocab3);
  RecursionReport r3 = AnalyzeRecursion(flat);
  EXPECT_FALSE(r3.recursive);
  EXPECT_TRUE(r3.linear);
  EXPECT_EQ(r3.num_strata, 1u);
}

TEST(Checks, PlanLintFlagsCrossProduct) {
  auto vocab = MakeVocabulary();
  Program p = MustParse("Goal() :- A(x), B(y).", vocab);
  AnalysisResult result = AnalyzeProgram(p);
  auto cross = WithCheck(result.diagnostics, "plan-cross-product");
  ASSERT_EQ(cross.size(), 1u);
  EXPECT_EQ(cross[0].severity, Severity::kWarning);
  EXPECT_EQ(cross[0].loc.rule, 0);

  auto vocab2 = MakeVocabulary();
  Program reach = MustParse(kReach, vocab2);
  EXPECT_TRUE(
      WithCheck(AnalyzeProgram(reach).diagnostics, "plan-cross-product")
          .empty());
}

// ---------------------------------------------------------------------------
// Dataflow checks (analysis/dataflow.h surfaced through the analyzer)

// Exercises all five dataflow checks (examples/programs/dead_rules.dl
// mirrors this text): Empty has no base case, Uses depends on it, rule 3
// is subsumed by rule 2, rule 4 duplicates a body atom, and Helper is
// only ever called with no bound argument under goal Query.
constexpr char kDeadRules[] = R"(
  Empty(x) :- Link(x,y), Empty(y).
  Uses(x) :- Empty(x).
  Path(x,y) :- Link(x,y).
  Path(x,y) :- Link(x,y), Link(y,_z).
  Dup(x) :- Link(x,y), Link(x,y).
  Query(x) :- Helper(y), Path(y,x).
  Helper(x) :- Link(x,x).
)";

TEST(DataflowChecks, FlagsEmptyPredicatesAndDeadRules) {
  auto vocab = MakeVocabulary();
  Program p = MustParse(kDeadRules, vocab);
  AnalysisResult result = AnalyzeProgram(p);
  auto empty = WithCheck(result.diagnostics, "always-empty-predicate");
  ASSERT_EQ(empty.size(), 2u);
  EXPECT_NE(empty[0].message.find("Empty"), std::string::npos);
  EXPECT_NE(empty[1].message.find("Uses"), std::string::npos);
  EXPECT_EQ(empty[0].severity, Severity::kWarning);
  auto dead = WithCheck(result.diagnostics, "dead-rule");
  ASSERT_EQ(dead.size(), 2u);
  EXPECT_EQ(dead[0].loc.rule, 0);
  EXPECT_EQ(dead[0].loc.atoms, std::vector<int>{1});  // the Empty(y) atom
  EXPECT_EQ(dead[1].loc.rule, 1);
}

TEST(DataflowChecks, FlagsSubsumedRulesAndRedundantAtoms) {
  auto vocab = MakeVocabulary();
  Program p = MustParse(kDeadRules, vocab);
  AnalysisResult result = AnalyzeProgram(p);
  auto subsumed = WithCheck(result.diagnostics, "subsumed-rule");
  ASSERT_EQ(subsumed.size(), 1u);
  EXPECT_EQ(subsumed[0].loc.rule, 3);
  EXPECT_NE(subsumed[0].message.find("subsumed by rule 2"),
            std::string::npos);
  auto redundant = WithCheck(result.diagnostics, "redundant-body-atom");
  ASSERT_EQ(redundant.size(), 2u);  // both copies of the duplicated atom
  EXPECT_EQ(redundant[0].loc.rule, 4);
  EXPECT_EQ(redundant[1].loc.rule, 4);
}

TEST(DataflowChecks, UnboundAdornmentNeedsBindingGoal) {
  auto vocab = MakeVocabulary();
  Program p = MustParse(kDeadRules, vocab);
  AnalysisOptions options;
  options.goal = vocab->FindPredicate("Query");
  AnalysisResult result = AnalyzeProgram(p, options);
  auto notes = WithCheck(result.diagnostics, "unbound-adornment");
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].severity, Severity::kNote);
  EXPECT_EQ(notes[0].loc.rule, 5);
  EXPECT_EQ(notes[0].loc.atoms, std::vector<int>{0});
  EXPECT_NE(notes[0].message.find("Helper"), std::string::npos);
  // Without a goal there is no binding source; with a nullary goal the
  // all-free pattern is vacuous. Both stay silent.
  EXPECT_TRUE(
      WithCheck(AnalyzeProgram(p).diagnostics, "unbound-adornment").empty());
  auto vocab2 = MakeVocabulary();
  Program reach = MustParse(kReach, vocab2);
  AnalysisOptions opt2;
  opt2.goal = vocab2->FindPredicate("Goal");
  EXPECT_TRUE(WithCheck(AnalyzeProgram(reach, opt2).diagnostics,
                        "unbound-adornment")
                  .empty());
}

TEST(Analyzer, DisableCheckRecordsDisabledIds) {
  auto vocab = MakeVocabulary();
  Program p = MustParse(kDeadRules, vocab);
  ProgramAnalyzer analyzer;
  EXPECT_TRUE(analyzer.DisableCheck("dead-rule"));
  EXPECT_TRUE(analyzer.DisableCheck("plan-lints"));
  EXPECT_FALSE(analyzer.DisableCheck("no-such-check"));
  AnalysisResult result = analyzer.Analyze(p);
  EXPECT_EQ(result.disabled_checks,
            (std::vector<std::string>{"dead-rule", "plan-lints"}));
  EXPECT_TRUE(WithCheck(result.diagnostics, "dead-rule").empty());
  // The other dataflow checks still ran.
  EXPECT_FALSE(
      WithCheck(result.diagnostics, "always-empty-predicate").empty());
  // A result from an analyzer with nothing disabled records nothing.
  EXPECT_TRUE(ProgramAnalyzer().Analyze(p).disabled_checks.empty());
}

// ---------------------------------------------------------------------------
// Fragment classification and witnesses

TEST(Fragments, ClassifiesReachAndSameGen) {
  auto vocab = MakeVocabulary();
  Program reach = MustParse(kReach, vocab);
  EXPECT_TRUE(InFragment(reach, Fragment::kMonadic));
  EXPECT_TRUE(InFragment(reach, Fragment::kFrontierGuarded));
  EXPECT_FALSE(InFragment(reach, Fragment::kNonRecursive));

  auto vocab2 = MakeVocabulary();
  Program sg = MustParse(kSameGen, vocab2);
  EXPECT_FALSE(InFragment(sg, Fragment::kMonadic));
  EXPECT_FALSE(InFragment(sg, Fragment::kFrontierGuarded));
  EXPECT_FALSE(InFragment(sg, Fragment::kNonRecursive));
}

TEST(Fragments, FrontierGuardWitnessNamesRuleAndAtoms) {
  auto vocab = MakeVocabulary();
  Program sg = MustParse(kSameGen, vocab);
  std::vector<Diagnostic> witnesses =
      FragmentViolations(sg, Fragment::kFrontierGuarded);
  ASSERT_EQ(witnesses.size(), 1u);
  const Diagnostic& w = witnesses[0];
  EXPECT_EQ(w.severity, Severity::kError);
  EXPECT_EQ(w.check, "fragment-frontier-guarded");
  EXPECT_EQ(w.loc.rule, 1);  // SG(x,y) :- Up(x,u), SG(u,v), Down(v,y).
  EXPECT_EQ(w.loc.atoms, (std::vector<int>{0, 2}));
  EXPECT_EQ(w.loc.vars, (std::vector<std::string>{"x", "y"}));
  // Rule 0's frontier {x,y} is guarded by Flat(x,y), so only rule 1 shows.
}

TEST(Fragments, MonadicWitnessNamesArityAndDefiningRules) {
  auto vocab = MakeVocabulary();
  Program sg = MustParse(kSameGen, vocab);
  std::vector<Diagnostic> witnesses =
      FragmentViolations(sg, Fragment::kMonadic);
  ASSERT_EQ(witnesses.size(), 1u);
  EXPECT_NE(witnesses[0].message.find("SG"), std::string::npos);
  EXPECT_NE(witnesses[0].message.find("arity 2"), std::string::npos);
}

TEST(Fragments, NonRecursiveWitnessPointsAtRecursiveAtom) {
  auto vocab = MakeVocabulary();
  Program reach = MustParse(kReach, vocab);
  std::vector<Diagnostic> witnesses =
      FragmentViolations(reach, Fragment::kNonRecursive);
  ASSERT_EQ(witnesses.size(), 1u);
  EXPECT_EQ(witnesses[0].loc.rule, 1);
  EXPECT_EQ(witnesses[0].loc.atoms, std::vector<int>{1});  // the P(y) atom
}

TEST(Fragments, RequiredFragmentEscalatesToError) {
  auto vocab = MakeVocabulary();
  Program sg = MustParse(kSameGen, vocab);
  AnalysisOptions options;
  options.required_fragments = {Fragment::kFrontierGuarded};
  AnalysisResult result = AnalyzeProgram(sg, options);
  EXPECT_FALSE(result.ok());
  auto errors = WithCheck(result.diagnostics, "fragment-frontier-guarded");
  ASSERT_GE(errors.size(), 1u);
  EXPECT_EQ(errors[0].severity, Severity::kError);
  EXPECT_FALSE(result.fragments.frontier_guarded);
  EXPECT_FALSE(result.fragments.monadic);
  EXPECT_FALSE(result.fragments.non_recursive);
}

// The Thm 6 gadget (Figures 1-5 machinery): the builder promises an MDL
// query and UCQ (non-recursive) views; the analyzer must agree and must
// stay witness-free on both.
TEST(Fragments, Thm6GadgetQueryIsMonadicViewsAreNonRecursive) {
  Thm6Gadget gadget = BuildThm6(SolvableTilingProblem());
  EXPECT_TRUE(InFragment(gadget.query.program, Fragment::kMonadic));
  EXPECT_TRUE(
      FragmentViolations(gadget.query.program, Fragment::kMonadic).empty());
  EXPECT_FALSE(InFragment(gadget.query.program, Fragment::kNonRecursive));

  AnalysisOptions options;
  options.goal = gadget.query.goal;
  AnalysisResult result = AnalyzeProgram(gadget.query.program, options);
  EXPECT_TRUE(result.ok()) << FormatDiagnostics(result.diagnostics);
  EXPECT_TRUE(result.fragments.monadic);

  for (const View& view : gadget.views.views()) {
    EXPECT_TRUE(InFragment(view.definition.program, Fragment::kNonRecursive))
        << gadget.views.vocab()->name(view.pred);
  }
}

// ---------------------------------------------------------------------------
// Analyzer registry

TEST(Analyzer, RegistryListsDisablesAndExtends) {
  ProgramAnalyzer analyzer;
  std::vector<std::string> ids = analyzer.CheckIds();
  for (const char* expected :
       {"safety", "arity", "reachability", "singleton-variable",
        "recursion-structure", "fragment-non-recursive", "fragment-monadic",
        "fragment-frontier-guarded", "plan-lints", "always-empty-predicate",
        "dead-rule", "subsumed-rule", "redundant-body-atom",
        "unbound-adornment"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << expected;
  }

  auto vocab = MakeVocabulary();
  Program p = MustParse("Goal() :- A(x), B(y).", vocab);
  EXPECT_TRUE(analyzer.DisableCheck("plan-lints"));
  EXPECT_FALSE(analyzer.DisableCheck("plan-lints"));
  EXPECT_TRUE(
      WithCheck(analyzer.Analyze(p).diagnostics, "plan-cross-product")
          .empty());

  analyzer.AddCheck("rule-budget", [](const ProgramAnalyzer::Input& in,
                                      std::vector<Diagnostic>* out) {
    if (in.program.rules().size() > 0) {
      out->push_back(
          MakeDiagnostic(Severity::kNote, "rule-budget", "has rules"));
    }
  });
  EXPECT_EQ(WithCheck(analyzer.Analyze(p).diagnostics, "rule-budget").size(),
            1u);
}

// ---------------------------------------------------------------------------
// User-reachable paths return diagnostics instead of aborting

TEST(TryApis, UnfoldToUcqReportsRecursionAndOverflow) {
  auto vocab = MakeVocabulary();
  DatalogQuery reach = MustParseQuery(kReach, "Goal", vocab);
  std::vector<Diagnostic> diags;
  EXPECT_FALSE(TryUnfoldToUcq(reach, 100000, &diags).has_value());
  EXPECT_FALSE(WithCheck(diags, "fragment-non-recursive").empty());

  auto vocab2 = MakeVocabulary();
  DatalogQuery ucq = MustParseQuery(
      "Goal() :- A(x), R(x,y), B(y).\nGoal() :- C(z).", "Goal", vocab2);
  auto unfolded = TryUnfoldToUcq(ucq);
  ASSERT_TRUE(unfolded.has_value());
  EXPECT_EQ(unfolded->disjuncts().size(), 2u);

  diags.clear();
  EXPECT_FALSE(TryUnfoldToUcq(ucq, /*max_disjuncts=*/1, &diags).has_value());
  auto overflow = WithCheck(diags, "unfold-overflow");
  ASSERT_EQ(overflow.size(), 1u);
  EXPECT_EQ(overflow[0].severity, Severity::kError);
}

TEST(TryApis, NormalizeMdlRejectsNonMonadicWithWitnesses) {
  auto vocab = MakeVocabulary();
  DatalogQuery sg = MustParseQuery(kSameGen, "Goal", vocab);
  std::vector<Diagnostic> diags;
  EXPECT_FALSE(TryNormalizeMdl(sg, &diags).has_value());
  EXPECT_FALSE(WithCheck(diags, "fragment-monadic").empty());

  auto vocab2 = MakeVocabulary();
  DatalogQuery reach = MustParseQuery(kReach, "Goal", vocab2);
  diags.clear();
  auto normalized = TryNormalizeMdl(reach, &diags);
  ASSERT_TRUE(normalized.has_value());
  EXPECT_TRUE(diags.empty());
}

TEST(TryApis, ViewSetTryAddViewValidatesAndReportsFragment) {
  auto vocab = MakeVocabulary();
  DatalogQuery reach = MustParseQuery(kReach, "Goal", vocab);
  ViewSet views(vocab);
  std::vector<Diagnostic> diags;
  auto ok = views.TryAddView("V", reach, &diags);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(views.views().size(), 1u);

  // Frontier-guard-violating definition, rejected with the exact witness.
  DatalogQuery sg = MustParseQuery(kSameGen, "Goal", vocab);
  auto bad =
      views.TryAddView("W", sg, &diags, Fragment::kFrontierGuarded);
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(views.views().size(), 1u);  // nothing added
  auto witnesses = WithCheck(diags, "fragment-frontier-guarded");
  ASSERT_EQ(witnesses.size(), 1u);
  EXPECT_EQ(witnesses[0].loc.rule, 1);
  EXPECT_EQ(witnesses[0].loc.atoms, (std::vector<int>{0, 2}));
  EXPECT_NE(witnesses[0].message.find("view W"), std::string::npos);
}

TEST(TryApis, MonDetCheckRejectsFragmentViolationAsInvalidInput) {
  auto vocab = MakeVocabulary();
  DatalogQuery sg = MustParseQuery(kSameGen, "Goal", vocab);
  ViewSet views(vocab);
  views.AddAtomicView("VFlat", *vocab->FindPredicate("Flat"));

  MonDetOptions options;
  options.require_query_fragment = Fragment::kFrontierGuarded;
  MonDetResult result = CheckMonotonicDeterminacy(sg, views, options);
  EXPECT_EQ(result.verdict, Verdict::kInvalidInput);
  auto witnesses = WithCheck(result.diagnostics, "fragment-frontier-guarded");
  ASSERT_EQ(witnesses.size(), 1u);
  EXPECT_EQ(witnesses[0].loc.rule, 1);
  EXPECT_EQ(witnesses[0].loc.atoms, (std::vector<int>{0, 2}));
}

TEST(TryApis, MonDetCheckRejectsVocabularyMismatch) {
  auto vocab = MakeVocabulary();
  DatalogQuery reach = MustParseQuery(kReach, "Goal", vocab);
  auto other = MakeVocabulary();
  ViewSet views(other);
  MonDetResult result = CheckMonotonicDeterminacy(reach, views, {});
  EXPECT_EQ(result.verdict, Verdict::kInvalidInput);
  EXPECT_FALSE(WithCheck(result.diagnostics, "view-vocabulary").empty());
}

// ---------------------------------------------------------------------------
// mondet-lint driver (golden output; the CLI is a thin wrapper over this)

TEST(Lint, CleanProgramGoldenJson) {
  LintResult result =
      LintProgramText("# goal: Goal\nGoal() :- A(x), R(x,y), B(y).\n");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.parsed);
  EXPECT_EQ(result.json,
            "{\"ok\":true,\"parsed\":true,\"rules\":1,\"errors\":0,"
            "\"warnings\":0,\"notes\":1,\"disabled_checks\":[],"
            "\"fragments\":{\"non_recursive\":true,\"monadic\":true,"
            "\"frontier_guarded\":true},"
            "\"recursion\":{\"strata\":1,\"recursive\":false,\"linear\":true,"
            "\"cyclic_idbs\":[]},"
            "\"diagnostics\":[{\"severity\":\"note\","
            "\"check\":\"recursion-structure\",\"message\":\"1 stratum; no "
            "recursion (the query is equivalent to a UCQ)\",\"rule\":-1,"
            "\"atoms\":[],\"vars\":[],\"line\":0,\"col\":0}]}");
}

TEST(Lint, CleanProgramGoldenSarif) {
  LintResult result =
      LintProgramText("# goal: Goal\nGoal() :- A(x), R(x,y), B(y).\n");
  std::string sarif = LintRunToSarif({FileLint{"examples/clean.dl", result}});
  EXPECT_EQ(
      sarif,
      "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":"
      "{\"name\":\"mondet-lint\",\"informationUri\":\"docs/ANALYSIS.md\","
      "\"rules\":[{\"id\":\"recursion-structure\"}]}},"
      "\"artifacts\":[{\"location\":{\"uri\":\"examples/clean.dl\"}}],"
      "\"results\":[{\"ruleId\":\"recursion-structure\",\"ruleIndex\":0,"
      "\"level\":\"note\",\"message\":{\"text\":\"1 stratum; no recursion "
      "(the query is equivalent to a UCQ)\"},\"locations\":"
      "[{\"physicalLocation\":{\"artifactLocation\":"
      "{\"uri\":\"examples/clean.dl\",\"index\":0}}}]}]}]}");
}

TEST(Lint, SarifRunCoversAllFilesWithRegionsAndLevels) {
  // One run per invocation: two files, one clean and one that violates a
  // required fragment, share the sorted rule table.
  LintResult clean =
      LintProgramText("# goal: Goal\nGoal() :- A(x), R(x,y), B(y).\n");
  LintOptions options;
  options.required_fragments = {Fragment::kFrontierGuarded};
  LintResult bad = LintProgramText(
      "# goal: Goal\n"
      "SG(x,y) :- Flat(x,y).\n"
      "SG(x,y) :- Up(x,u), SG(u,v), Down(v,y).\n"
      "Goal() :- SG(x,y), Src(x), Dst(y).\n",
      options);
  std::string sarif = LintRunToSarif(
      {FileLint{"a.dl", clean}, FileLint{"b.dl", bad}});
  // Both artifacts, in invocation order.
  EXPECT_NE(sarif.find("\"artifacts\":[{\"location\":{\"uri\":\"a.dl\"}},"
                       "{\"location\":{\"uri\":\"b.dl\"}}]"),
            std::string::npos)
      << sarif;
  // The violation is an error result anchored at its source line in b.dl.
  EXPECT_NE(sarif.find("\"ruleId\":\"fragment-frontier-guarded\""),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos) << sarif;
  EXPECT_NE(
      sarif.find("{\"uri\":\"b.dl\",\"index\":1},\"region\":"
                 "{\"startLine\":3,\"startColumn\":1}"),
      std::string::npos)
      << sarif;
  // ruleIndex values point into the sorted rule table.
  EXPECT_NE(sarif.find("\"rules\":[{\"id\":\"fragment-frontier-guarded\"}"),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"ruleId\":\"fragment-frontier-guarded\","
                       "\"ruleIndex\":0"),
            std::string::npos)
      << sarif;
}

TEST(Lint, FrontierGuardViolationGoldenTextAndJson) {
  LintOptions options;
  options.required_fragments = {Fragment::kFrontierGuarded};
  LintResult result = LintProgramText(
      "# goal: Goal\n"
      "SG(x,y) :- Flat(x,y).\n"
      "SG(x,y) :- Up(x,u), SG(u,v), Down(v,y).\n"
      "Goal() :- SG(x,y), Src(x), Dst(y).\n",
      options);
  EXPECT_EQ(result.exit_code, 1);
  // The text report names the exact rule and atom set.
  EXPECT_NE(result.text.find(
                "error[fragment-frontier-guarded] line 3:1 rule 1 "
                "(atom 0, atom 2) {x, y}:"),
            std::string::npos)
      << result.text;
  EXPECT_NE(result.text.find("candidate guards: Up/2[atom 0] Down/2[atom 2]"),
            std::string::npos)
      << result.text;
  // So does the JSON report.
  EXPECT_NE(result.json.find("\"check\":\"fragment-frontier-guarded\""),
            std::string::npos)
      << result.json;
  EXPECT_NE(result.json.find("\"rule\":1,\"atoms\":[0,2],"
                             "\"vars\":[\"x\",\"y\"],\"line\":3"),
            std::string::npos)
      << result.json;
  EXPECT_NE(result.json.find("\"ok\":false"), std::string::npos);
}

TEST(Lint, ParseFailureIsDiagnosedNotAborted) {
  LintResult result = LintProgramText("Goal(x) :- R(y,z).");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_FALSE(result.parsed);
  EXPECT_FALSE(WithCheck(result.diagnostics, "safety").empty());
  EXPECT_NE(result.json.find("\"parsed\":false"), std::string::npos);
}

TEST(Lint, WerrorPromotesWarningsToFailure) {
  const char* text = "# goal: Goal\nGoal() :- R(x,y), U(x).\n";
  EXPECT_EQ(LintProgramText(text).exit_code, 0);  // singleton y: warning only
  LintOptions options;
  options.werror = true;
  EXPECT_EQ(LintProgramText(text, options).exit_code, 1);
}

TEST(Lint, GoalCommentAndOptionControlReachability) {
  // The "# goal:" comment wires up the reachability checks...
  LintResult with_comment = LintProgramText(
      "# goal: Goal\nGoal() :- P(x).\nP(x) :- U(x).\nDead(x) :- W(x).\n");
  EXPECT_FALSE(WithCheck(with_comment.diagnostics, "unused-predicate").empty());
  // ...and --goal overrides it.
  LintOptions options;
  options.goal = "Nope";
  LintResult bad_goal =
      LintProgramText("Goal() :- P(x).\nP(x) :- U(x).\n", options);
  EXPECT_EQ(bad_goal.exit_code, 1);
  EXPECT_FALSE(WithCheck(bad_goal.diagnostics, "goal").empty());
}

TEST(Lint, DisableCheckSurfacesInJsonAndWarnsOnUnknownIds) {
  LintOptions options;
  options.disabled_checks = {"dead-rule", "no-such-check"};
  LintResult result = LintProgramText(kDeadRules, options);
  // Only successfully disabled ids are recorded — "clean because the
  // check was off" stays distinguishable from "clean".
  EXPECT_NE(result.json.find("\"disabled_checks\":[\"dead-rule\"]"),
            std::string::npos)
      << result.json;
  EXPECT_TRUE(WithCheck(result.diagnostics, "dead-rule").empty());
  EXPECT_FALSE(
      WithCheck(result.diagnostics, "always-empty-predicate").empty());
  auto unknown = WithCheck(result.diagnostics, "unknown-check");
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_NE(unknown[0].message.find("no-such-check"), std::string::npos);
}

TEST(Lint, DataflowDumpAppendedToTextAndJson) {
  LintOptions options;
  options.goal = "Query";
  options.dataflow_dump = true;
  LintResult result = LintProgramText(kDeadRules, options);
  ASSERT_FALSE(result.dataflow.empty());
  EXPECT_NE(result.dataflow.find("emptiness/constant-set fixpoint"),
            std::string::npos)
      << result.dataflow;
  EXPECT_NE(result.dataflow.find("Empty/1 idb: empty"), std::string::npos)
      << result.dataflow;
  EXPECT_NE(result.dataflow.find("rule 0: dead"), std::string::npos);
  EXPECT_NE(result.dataflow.find("rule 3: subsumed by rule 2"),
            std::string::npos)
      << result.dataflow;
  EXPECT_NE(result.dataflow.find("adornments"), std::string::npos);
  // The dump rides along in both rendered forms.
  EXPECT_NE(result.text.find(result.dataflow), std::string::npos);
  EXPECT_NE(result.json.find("\"dataflow\":"), std::string::npos);
  // Off by default.
  EXPECT_TRUE(LintProgramText(kDeadRules).dataflow.empty());
}

TEST(Lint, SarifRuleTableCoversEveryRegisteredCheck) {
  // Legacy registry ids whose emitted diagnostic ids differ; everything
  // else emits under its own id.
  auto emitted_ids = [](const std::string& check) {
    if (check == "reachability") {
      return std::vector<std::string>{"unused-predicate", "unreachable-rule"};
    }
    if (check == "plan-lints") {
      return std::vector<std::string>{"plan-cross-product"};
    }
    return std::vector<std::string>{check};
  };

  // Files that together trigger every registered check at least once.
  std::vector<FileLint> files;
  files.push_back({"safety.dl", LintProgramText("Goal(x) :- R(y,z).")});
  files.push_back(
      {"arity.dl", LintProgramText("A(x) :- R(x).\nB(x) :- R(x,y).")});
  files.push_back({"reach.dl",
                   LintProgramText("# goal: Goal\n"
                                   "Goal() :- A(x), B(y).\n"
                                   "P(x) :- U(x).\n")});
  LintOptions frag_options;
  frag_options.required_fragments = {Fragment::kNonRecursive,
                                     Fragment::kMonadic,
                                     Fragment::kFrontierGuarded};
  files.push_back({"fragments.dl", LintProgramText(kSameGen, frag_options)});
  LintOptions dataflow_options;
  dataflow_options.goal = "Query";
  files.push_back(
      {"dataflow.dl", LintProgramText(kDeadRules, dataflow_options)});

  std::string sarif = LintRunToSarif(files);
  for (const std::string& check : ProgramAnalyzer().CheckIds()) {
    for (const std::string& id : emitted_ids(check)) {
      EXPECT_NE(sarif.find("{\"id\":\"" + id + "\"}"), std::string::npos)
          << "registered check '" << check << "' never surfaced a SARIF "
          << "rule entry for '" << id << "' — extend the trigger files";
    }
  }
}

TEST(Lint, ParseFragmentNames) {
  EXPECT_EQ(ParseFragmentName("monadic"), Fragment::kMonadic);
  EXPECT_EQ(ParseFragmentName("non-recursive"), Fragment::kNonRecursive);
  EXPECT_EQ(ParseFragmentName("frontier-guarded"), Fragment::kFrontierGuarded);
  EXPECT_FALSE(ParseFragmentName("guarded").has_value());
}

}  // namespace
}  // namespace mondet
