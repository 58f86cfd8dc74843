// A command-line driver: reads a task file describing a query, views and
// (optionally) an instance, then reports static analysis findings,
// fragment classification, the monotonic-determinacy verdict, a rewriting
// when one is constructible, and evaluation results.
//
// Bad inputs produce diagnostics with source positions and a nonzero exit
// code — never a MONDET_CHECK abort. Every section is parsed even after a
// failure so one run reports everything wrong with the task file.
//
// Task file format (sections in any order, one `.query`, any number of
// `.view`s, optional `.instance`, optional `.stream` — the stream
// requires an instance):
//
//   .query Goal
//   P(x) :- U(x).
//   P(x) :- R(x,y), P(y).
//   Goal() :- P(x).
//
//   .view VR
//   VR(x,y) :- R(x,y).
//
//   .instance
//   R(a,b). R(b,c). U(c).
//
//   .stream
//   +R(c,d). +U(d).
//   -R(a,b).
//
// Each non-empty `.stream` line is one batch of raw inserts (+) and
// deletes (-) against the instance; batches are applied in order to a
// MaintainedImage (incremental view maintenance: Backward/Forward on
// every stratum), the per-batch net view-image change is reported,
// and at the end the maintained image is cross-checked against a
// from-scratch recompute and the monotonic-determinacy verdict is
// re-checked.
//
// Usage: mondet_cli <task-file>     (defaults to a built-in demo task)

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "base/stats.h"
#include "core/mondet_check.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/fragment.h"
#include "datalog/parser.h"
#include "views/inverse_rules.h"
#include "views/maintained_image.h"

using namespace mondet;

namespace {

constexpr char kDemoTask[] = R"(
.query Goal
P(x) :- U(x).
P(x) :- R(x,y), P(y).
Goal() :- P(x).

.view VR
VR(x,y) :- R(x,y).

.view VU
VU(x) :- U(x).

.instance
R(a,b). R(b,c). U(c).
)";

struct Section {
  std::string kind;  // "query", "view", "instance"
  std::string arg;   // goal / view predicate name
  std::string body;
};

std::vector<Section> SplitSections(const std::string& text) {
  std::vector<Section> sections;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(".", 0) == 0) {
      std::istringstream header(line.substr(1));
      Section s;
      header >> s.kind >> s.arg;
      sections.push_back(s);
    } else if (!sections.empty()) {
      sections.back().body += line + "\n";
    }
  }
  return sections;
}

/// Prints the diagnostics of one section under a heading; returns true
/// when any of them is an error.
bool Report(const std::string& where, const std::vector<Diagnostic>& diags) {
  if (!diags.empty()) {
    std::fprintf(stderr, "%s:\n%s", where.c_str(),
                 FormatDiagnostics(diags).c_str());
  }
  return HasErrors(diags);
}

}  // namespace

int main(int argc, char** argv) {
  std::string text = kDemoTask;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  } else {
    std::printf("(no task file given; running the built-in demo)\n\n");
  }

  auto vocab = MakeVocabulary();
  std::optional<DatalogQuery> query;
  ViewSet views(vocab);
  std::optional<Instance> instance;
  std::optional<std::string> stream_body;
  bool failed = false;

  for (const Section& s : SplitSections(text)) {
    std::vector<Diagnostic> diags;
    if (s.kind == "query") {
      query = ParseQuery(s.body, s.arg, vocab, &diags);
      failed |= Report(".query " + s.arg, diags);
    } else if (s.kind == "view") {
      ParseResult result = ParseProgram(s.body, vocab);
      if (!result.ok()) {
        failed |= Report(".view " + s.arg, result.diagnostics);
        continue;
      }
      auto goal = vocab->FindPredicate(s.arg);
      if (!goal) {
        diags.push_back(MakeDiagnostic(
            Severity::kError, "goal",
            "view " + s.arg + ": predicate " + s.arg +
                " does not occur in the definition"));
        failed |= Report(".view " + s.arg, diags);
        continue;
      }
      views.TryAddView(s.arg, DatalogQuery(std::move(*result.program), *goal),
                       &diags);
      failed |= Report(".view " + s.arg, diags);
    } else if (s.kind == "instance") {
      instance = ParseInstance(s.body, vocab, &diags);
      failed |= Report(".instance", diags);
    } else if (s.kind == "stream") {
      stream_body = s.body;  // parsed below: it needs the instance
    } else {
      std::fprintf(stderr, "unknown section .%s\n", s.kind.c_str());
      failed = true;
    }
  }
  // The stream references elements of the instance, so it parses after
  // every section is in (sections may appear in any order).
  std::optional<StreamParse> stream;
  if (stream_body) {
    if (!instance) {
      std::fprintf(stderr, ".stream requires an .instance section\n");
      failed = true;
    } else {
      std::vector<Diagnostic> diags;
      stream = ParseStream(*stream_body, vocab, *instance, &diags);
      failed |= Report(".stream", diags);
    }
  }
  if (!query) {
    if (!failed) std::fprintf(stderr, "task has no .query section\n");
    return 1;
  }
  if (failed) return 1;

  // --- Static analysis. ----------------------------------------------------
  // One compiled program serves the analyzer's plan lints, the plan
  // report and evaluation below, so what the lints judge is exactly what
  // runs. Binding instance statistics makes the plan report (and any
  // cross-product lint) carry estimated row counts, and an instance
  // below the planner's size gate evaluates under these bound orders.
  CompiledProgram compiled(query->program);
  if (instance) compiled.BindStats(Stats::Collect(*instance));
  AnalysisOptions aopts;
  aopts.goal = query->goal;
  aopts.fragment_notes = false;
  aopts.compiled = &compiled;
  AnalysisResult analysis = AnalyzeProgram(query->program, aopts);
  std::vector<Diagnostic> findings;
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.severity != Severity::kNote) findings.push_back(d);
  }
  if (Report("analysis", findings)) return 1;

  // --- Fragment report. ----------------------------------------------------
  std::printf("query: goal %s, %zu rules; monadic=%s frontier-guarded=%s "
              "recursive=%s\n",
              vocab->name(query->goal).c_str(),
              query->program.rules().size(),
              analysis.fragments.monadic ? "yes" : "no",
              analysis.fragments.frontier_guarded ? "yes" : "no",
              analysis.fragments.non_recursive ? "no" : "yes");
  std::printf("views: %zu (all CQ: %s)\n", views.views().size(),
              views.AllCq() ? "yes" : "no");

  // --- Join plans. ---------------------------------------------------------
  std::printf("join plans%s:\n%s",
              instance ? " (est rows from instance stats)" : "",
              compiled.DescribePlansText().c_str());

  // --- Monotonic determinacy. ----------------------------------------------
  MonDetResult verdict = CheckMonotonicDeterminacy(*query, views);
  const char* verdict_name =
      verdict.verdict == Verdict::kDetermined       ? "DETERMINED (exact)"
      : verdict.verdict == Verdict::kNotDetermined  ? "NOT DETERMINED"
      : verdict.verdict == Verdict::kInvalidInput   ? "INVALID INPUT"
                                                    : "no counterexample "
                                                      "within bounds";
  std::printf("monotonic determinacy: %s (%zu canonical tests, %zu "
              "evaluations)\n",
              verdict_name, verdict.tests_run, verdict.evaluations);
  if (verdict.failure) {
    std::printf("  failing test D': %s\n",
                verdict.failure->dprime.DebugString().c_str());
  }

  // --- Rewriting (CQ views only). -------------------------------------------
  std::optional<DatalogQuery> rewriting;
  if (views.AllCq() && verdict.verdict != Verdict::kNotDetermined) {
    rewriting = InverseRulesRewriting(*query, views);
    std::printf("inverse-rules rewriting over the view schema (%zu rules):\n%s",
                rewriting->program.rules().size(),
                rewriting->program.DebugString().c_str());
  }

  // --- Evaluation, with the same compiled program the lints judged. ---------
  if (instance) {
    EvalStats estats;
    Instance fixpoint = compiled.Eval(*instance, &estats);
    bool holds = fixpoint.NumRows(query->goal) > 0;
    std::printf("eval: %s\n", estats.Summary().c_str());
    if (rewriting) {
      Instance image = views.Image(*instance);
      std::printf("on the instance: Q = %s, rewriting(V(I)) = %s\n",
                  holds ? "true" : "false",
                  DatalogHoldsOn(*rewriting, image) ? "true" : "false");
    } else {
      std::printf("on the instance: Q = %s\n", holds ? "true" : "false");
    }
  }

  // --- Maintained view image under the stream. ------------------------------
  if (stream) {
    MaintainedImage maintained(views, *instance);
    for (const std::string& name : stream->new_elements) {
      maintained.AddElement(name);
    }
    EvalStats mstats;
    for (const StreamBatch& batch : stream->batches) {
      ImageDelta d = maintained.ApplyDelta(batch.inserts, batch.deletes,
                                           &mstats);
      std::printf(
          "stream line %d: +%zu/-%zu base facts -> image +%zu/-%zu"
          " (overdeleted %zu, rederived %zu)\n",
          batch.line, batch.inserts.size(), batch.deletes.size(),
          d.inserts.size(), d.deletes.size(), d.overdeleted, d.rederived);
    }
    std::printf("stream maintenance: %s\n", mstats.Summary().c_str());

    // Cross-check: the maintained image must equal a from-scratch
    // recompute of the mutated base (the maintenance engine's contract).
    Instance fresh = maintained.FreshImage();
    std::vector<Fact> got = maintained.image().AllFacts();
    std::vector<Fact> want = fresh.AllFacts();
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    bool image_ok = got == want;
    std::printf("maintained image: %zu facts, matches recompute: %s\n",
                maintained.image().num_facts(), image_ok ? "yes" : "NO");
    if (!image_ok) return 1;

    MonDetResult recheck =
        CheckMonotonicDeterminacy(*query, maintained.views());
    std::printf("verdict over the maintained views: %s\n",
                recheck.verdict == verdict.verdict ? "unchanged" : "CHANGED");
  }
  return 0;
}
