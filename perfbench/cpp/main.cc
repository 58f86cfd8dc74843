// The mondet benchmark binary: runs one workload for one seed in a closed
// loop, checks every result against an independent reference, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// the last line of stdout. perfbench/run.py builds and invokes it; the
// metric names and units here must match BENCHMARK.json (run.py --smoke
// checks that they do).
//
//   mondet_perfbench --workload check --seed 1 --seconds 10 --trace 0

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datalog/eval_plan.h"
#include "harness.h"
#include "trace.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"op_ms.p50", "ms"},  {"op_ms.p90", "ms"},
    {"ops_per_s", "1/s"},   {"work_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

// Every per-layer metric, emitted by every traced run; a workload that does
// not exercise a layer reports it as 0 (README.md maps each metric to its
// workload and to the end-to-end metric it should move).
constexpr MetricDef kPerLayer[] = {
    {"datalog.approximation.expand_ms", "ms"},
    {"datalog.compile_ms", "ms"},
    {"views.image_us", "us"},
    {"base.instance.dprime_build_us", "us"},
    {"base.instance.copy_us", "us"},
    {"base.stats.collect_us", "us"},
    {"datalog.eval.us_per_test", "us"},
    {"core.check.tests_per_check", "count"},
    {"core.check.expansions_per_check", "count"},
    {"core.check.replay_share", "ratio"},
    {"base.thread_pool.cpu_per_wall", "ratio"},
    {"base.stats.collect_ms", "ms"},
    {"datalog.eval.rounds", "count"},
    {"datalog.eval.facts_derived", "count"},
    {"datalog.eval.join_probes", "count"},
    {"datalog.eval.facts_per_probe", "ratio"},
    {"datalog.eval.replans", "count"},
    {"datalog.eval.stats_facts_counted", "count"},
    {"datalog.eval.rules_pruned", "count"},
    {"datalog.eval.max_stratum_ms", "ms"},
    {"views.materialize_ms", "ms"},
    {"views.maintain_ms", "ms"},
    {"datalog.maintain.overdeleted_per_batch", "count"},
    {"datalog.maintain.rederived_per_batch", "count"},
    {"datalog.maintain.rederive_ratio", "ratio"},
    {"views.maintain.image_changes_per_batch", "count"},
    {"datalog.eval.read_ms", "ms"},
    {"core.forward.build_ms", "ms"},
    {"core.forward.nta_states", "count"},
    {"core.forward.nta_transitions", "count"},
    {"core.containment.walk_ms", "ms"},
    {"core.containment.pairs", "count"},
    {"core.containment.transition_visits", "count"},
    {"core.containment.macrostates", "count"},
    {"core.containment.prune_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "mondet_perfbench: %s\nusage: mondet_perfbench --workload "
               "{check|fixpoint|churn|containment} --seed N --seconds S "
               "--trace {0|1} [--smoke] [--trace-out FILE] [--revision R]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string trace_out;
  std::string revision = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if ((v = value()) == nullptr) {
      return Usage("missing value");
    } else if (arg == "--workload") {
      options.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out") {
      trace_out = v;
    } else if (arg == "--revision") {
      revision = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0) || options.seconds > 120) {
    return Usage("--seconds must be in (0, 120]");
  }

  Tracer tracer(options.trace);
  Result result;
  const Clock::time_point t0 = Clock::now();
  try {
    if (options.workload == "check") {
      RunCheck(options, tracer, &result);
    } else if (options.workload == "fixpoint") {
      RunFixpoint(options, tracer, &result);
    } else if (options.workload == "churn") {
      RunChurn(options, tracer, &result);
    } else if (options.workload == "containment") {
      RunContainment(options, tracer, &result);
    } else {
      return Usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    ++result.attempted;
    result.Fail(std::string("exception: ") + e.what());
  }
  const double wall_s = MsSince(t0) / 1000;
  const EndToEnd e2e = Summarize(result);

#ifdef __OPTIMIZE__
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  const char* env_threads = std::getenv("MONDET_THREADS");
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const double failed_frac =
      result.attempted == 0
          ? 1.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::ostringstream stamp;
  stamp << "{\"workload\": " << Quote(options.workload)
        << ", \"seed\": " << options.seed
        << ", \"seconds\": " << Num(options.seconds)
        << ", \"trace\": " << (options.trace ? 1 : 0)
        << ", \"smoke\": " << (options.smoke ? "true" : "false")
        << ", \"nproc\": " << nproc
        << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ", \"eval_threads\": " << mondet::ResolveEvalThreads(0)
        << ", \"MONDET_THREADS\": "
        << (env_threads ? Quote(env_threads) : std::string("null"))
        << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
        << ", \"optimised\": " << (optimised ? "true" : "false")
        << ", \"revision\": " << Quote(revision)
        << ", \"op_samples\": " << result.op_ms.size()
        << ", \"setup_reps\": " << result.setup_s.size()
        << ", \"raw_setup_s\": " << Num(Median(result.raw_setup_s))
        << ", \"calibration_ms\": " << Num(e2e.calibration_ms)
        << ", \"parallel_calibration_ms\": "
        << Num(e2e.parallel_calibration_ms)
        << ", \"calibrations\": " << result.calibrations.size()
        << ", \"raw_op_ms.p50\": " << Num(e2e.raw_p50)
        << ", \"raw_op_ms.p90\": " << Num(e2e.raw_p90)
        << ", \"raw_ops_per_s\": " << Num(e2e.raw_ops_per_s)
        << ", \"blocks\": " << e2e.blocks
        << ", \"block_ops\": " << e2e.block_ops
        << ", \"attempted\": " << result.attempted
        << ", \"failed\": " << result.failed
        << ", \"failed_frac\": " << Num(failed_frac)
        << ", \"wall_s\": " << Num(wall_s) << "}";

  if (!optimised) {
    std::fprintf(stderr, "WARNING: benchmark built without optimisation\n");
  }
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  if (options.trace && !trace_out.empty() &&
      !tracer.Write(trace_out, stamp.str())) {
    std::fprintf(stderr, "could not write trace file %s\n", trace_out.c_str());
    return 1;
  }

  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const MetricDef& m, double v) {
    metrics << (first ? "" : ", ") << Quote(m.name) << ": {\"value\": "
            << Num(v) << ", \"unit\": " << Quote(m.unit) << "}";
    first = false;
  };
  if (!options.trace) {
    const double values[] = {
        Median(result.setup_s),
        e2e.p50,
        e2e.p90,
        e2e.ops_per_s,
        e2e.work_per_s,
        PeakRssMb(),
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      emit(kEndToEnd[i], values[i]);
    }
  } else {
    for (const MetricDef& m : kPerLayer) {
      auto it = result.layers.find(m.name);
      emit(m, it == result.layers.end() ? 0.0 : it->second);
    }
    for (const auto& [name, value] : result.layers) {
      bool known = false;
      for (const MetricDef& m : kPerLayer) known = known || name == m.name;
      if (!known) {
        std::fprintf(stderr, "internal: undeclared layer metric %s\n",
                     name.c_str());
        return 1;
      }
    }
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("# stamp %s\n", stamp.str().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", result.attempted, result.failed,
      metrics.str().c_str());
  std::fflush(stdout);
  return 0;
}
