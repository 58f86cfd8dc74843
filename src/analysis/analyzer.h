#ifndef MONDET_ANALYSIS_ANALYZER_H_
#define MONDET_ANALYSIS_ANALYZER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "datalog/program.h"

namespace mondet {

class CompiledProgram;

/// Syntactic fragments the paper's results are conditioned on: every cell
/// of Table 1 (rewritability) and Table 2 (decidability of monotonic
/// determinacy) assumes the query/views lie in one of these. The analyzer
/// classifies programs and produces *witnesses* — the concrete rule and
/// atoms violating a fragment — instead of a bare boolean.
enum class Fragment {
  kNonRecursive,     // equivalent to a UCQ (Table 1/2 UCQ rows)
  kMonadic,          // MDL rows; Lemma 1/Prop. 2 need unary IDBs
  kFrontierGuarded,  // FGDL rows (Thm 3, Thm 4)
};

const char* FragmentName(Fragment f);

/// The violations keeping `program` outside `fragment`; empty iff the
/// program is in the fragment. Each diagnostic names the offending rule
/// and the atoms/variables involved. Emitted with the given severity
/// (procedures gating on a fragment use kError; reports use kNote).
std::vector<Diagnostic> FragmentViolations(const Program& program,
                                           Fragment fragment,
                                           Severity severity = Severity::kError);

/// True iff the program lies in the fragment (no violations).
bool InFragment(const Program& program, Fragment fragment);

/// Recursion structure of a program: the strata (SCCs of the IDB
/// dependency graph), the IDBs on cycles, and whether the recursion is
/// linear (every rule uses at most one body atom from its own stratum).
struct RecursionReport {
  size_t num_strata = 0;
  std::vector<PredId> cyclic_idbs;  // sorted; IDBs on a dependency cycle
  bool recursive = false;
  bool linear = true;
};
RecursionReport AnalyzeRecursion(const Program& program);

/// Which fragments the program lies in (bare classification; witnesses
/// are in the diagnostics under check ids "fragment-*").
struct FragmentClassification {
  bool non_recursive = false;
  bool monadic = false;
  bool frontier_guarded = false;
};

struct AnalysisOptions {
  /// Goal predicate; enables the reachability checks "unused-predicate"
  /// and "unreachable-rule".
  std::optional<PredId> goal;
  /// Reuse this compiled program for the plan lints ("plan-cross-product";
  /// DisableCheck("plan-lints") skips them) instead of compiling a fresh
  /// one; it must have been compiled from the analyzed program.
  /// When it carries bound statistics (CompiledProgram::BindStats) the
  /// cross-product lint reports the estimated row blowup, so the lint is
  /// judged against real numbers. Not owned; may be null.
  const CompiledProgram* compiled = nullptr;
  /// Classify the program against all fragments and emit kNote witnesses
  /// for the fragments it falls outside of.
  bool fragment_notes = true;
  /// Fragments the caller *requires*: violations become kError.
  std::vector<Fragment> required_fragments;
};

struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;
  FragmentClassification fragments;
  RecursionReport recursion;
  /// Check ids removed from the registry via DisableCheck, so consumers
  /// (mondet-lint --json) can tell "clean" apart from "not run".
  std::vector<std::string> disabled_checks;

  bool ok() const { return !HasErrors(diagnostics); }
};

/// A static-analysis pass framework over datalog::Program: a registry of
/// named checks run in registration order. Construct with the default
/// registry (safety, arity, reachability, singleton-variable,
/// recursion-structure, fragment classification, plan lints — see
/// docs/ANALYSIS.md); extend with AddCheck or prune with DisableCheck.
class ProgramAnalyzer {
 public:
  struct Input {
    const Program& program;
    const AnalysisOptions& options;
  };
  using CheckFn = std::function<void(const Input&, std::vector<Diagnostic>*)>;

  /// Registers the default checks.
  ProgramAnalyzer();

  void AddCheck(std::string id, CheckFn fn);
  /// Removes a check by id; returns false when no such check exists.
  /// Disabled ids are recorded and surface in
  /// AnalysisResult::disabled_checks of every later Analyze call.
  bool DisableCheck(const std::string& id);
  std::vector<std::string> CheckIds() const;

  AnalysisResult Analyze(const Program& program,
                         const AnalysisOptions& options = {}) const;

 private:
  struct Check {
    std::string id;
    CheckFn fn;
  };
  std::vector<Check> checks_;
  std::vector<std::string> disabled_ids_;
};

/// Convenience: runs the default analyzer.
AnalysisResult AnalyzeProgram(const Program& program,
                              const AnalysisOptions& options = {});

/// Safety / range restriction of one rule (every head variable occurs in
/// some body atom — the Sec. 2 well-formedness condition Program::AddRule
/// asserts). Exposed separately so the parser can report violations with
/// source positions *before* constructing the Program. Check id "safety".
void CheckRuleSafety(const Rule& rule, int rule_index,
                     std::vector<Diagnostic>* out);

/// Arity consistency of every atom of one rule against the vocabulary.
/// Check id "arity".
void CheckRuleArity(const Rule& rule, int rule_index, const Vocabulary& vocab,
                    std::vector<Diagnostic>* out);

}  // namespace mondet

#endif  // MONDET_ANALYSIS_ANALYZER_H_
