// mondet-fuzz: randomized differential testing with shrinking repros.
//
// Drives the oracle registry of src/testing/oracle.h — the same seeded
// generators and checkers the differential test suites wrap — either over
// a seed range / time budget (fuzzing) or over saved `.repro` files
// (replay). A failing case is delta-debugged down to a 1-minimal repro
// (src/testing/shrink.h) and written to --out, so a CI failure line
// always names a small, replayable artifact. Every check — each case,
// each shrink step, each replayed file — runs in a forked child, one at a
// time (src/testing/fuzz.h): an engine abort fails that case and the run
// goes on.
//
// Usage: mondet-fuzz [options]
//   --list            print the oracle names and exit
//   --oracle NAME     fuzz only this oracle (repeatable; default: all)
//   --seeds N         seeds per oracle, starting at 0 (default 50)
//   --seed S          run exactly seed S (repeatable; overrides --seeds)
//   --budget-ms MS    stop starting new seeds once MS elapsed (wall clock)
//   --out DIR         where shrunk repros are written (default ".")
//   --no-shrink       report the original failing case, skip shrinking
//   --replay FILE...  check saved `.repro` files instead of fuzzing
//
// Exit codes: 0 all checks passed, 1 some check failed, 2 usage/IO error.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "testing/corpus.h"
#include "testing/fuzz.h"
#include "testing/oracle.h"

using namespace mondet::testing;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--oracle NAME]... [--seeds N]\n"
               "       [--seed S]... [--budget-ms MS] [--out DIR]\n"
               "       [--no-shrink] [--replay FILE...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> oracle_names;
  std::vector<unsigned> seeds;
  std::vector<std::string> replay_files;
  size_t num_seeds = 50;
  long long budget_ms = -1;
  std::string out_dir = ".";
  bool shrink = true;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list") {
      for (const Oracle* o : AllOracles()) {
        std::printf("%s\n", o->name().c_str());
      }
      return 0;
    } else if (arg == "--oracle") {
      if (++i >= argc) return Usage(argv[0]);
      oracle_names.push_back(argv[i]);
    } else if (arg == "--seeds") {
      if (++i >= argc) return Usage(argv[0]);
      num_seeds = static_cast<size_t>(std::stoul(argv[i]));
    } else if (arg == "--seed") {
      if (++i >= argc) return Usage(argv[0]);
      seeds.push_back(static_cast<unsigned>(std::stoul(argv[i])));
    } else if (arg == "--budget-ms") {
      if (++i >= argc) return Usage(argv[0]);
      budget_ms = std::stoll(argv[i]);
    } else if (arg == "--out") {
      if (++i >= argc) return Usage(argv[0]);
      out_dir = argv[i];
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg == "--replay") {
      for (++i; i < argc; ++i) replay_files.push_back(argv[i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  size_t failures = 0;

  if (!replay_files.empty()) {
    for (const std::string& file : replay_files) {
      std::string error;
      std::optional<FuzzCase> c = LoadCaseFile(file, &error);
      if (!c.has_value()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(), error.c_str());
        return 2;
      }
      const Oracle* oracle = FindOracle(c->oracle);
      if (oracle == nullptr) {
        std::fprintf(stderr, "%s: unknown oracle `%s`\n", file.c_str(),
                     c->oracle.c_str());
        return 2;
      }
      OracleOutcome outcome = CheckInChild(*oracle, *c);
      if (outcome.ok) {
        std::printf("PASS %s\n", file.c_str());
      } else {
        ++failures;
        std::fprintf(stderr, "FAIL %s\n%s\n", file.c_str(),
                     outcome.message.c_str());
      }
    }
    return failures > 0 ? 1 : 0;
  }

  std::vector<const Oracle*> oracles;
  if (oracle_names.empty()) {
    oracles = AllOracles();
  } else {
    for (const std::string& name : oracle_names) {
      const Oracle* o = FindOracle(name);
      if (o == nullptr) {
        std::fprintf(stderr, "unknown oracle `%s` (try --list)\n",
                     name.c_str());
        return 2;
      }
      oracles.push_back(o);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  auto budget_left = [&] {
    if (budget_ms < 0) return true;
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return elapsed < budget_ms;
  };

  size_t cases_run = 0;
  for (const Oracle* oracle : oracles) {
    if (seeds.empty()) {
      for (unsigned seed = 0; seed < num_seeds && budget_left(); ++seed) {
        ++cases_run;
        if (!RunCase(*oracle, oracle->Generate(seed), shrink, out_dir)) {
          ++failures;
        }
      }
    } else {
      for (unsigned seed : seeds) {
        ++cases_run;
        if (!RunCase(*oracle, oracle->Generate(seed), shrink, out_dir)) {
          ++failures;
        }
      }
    }
  }
  std::printf("%zu cases, %zu failures\n", cases_run, failures);
  return failures > 0 ? 1 : 0;
}
