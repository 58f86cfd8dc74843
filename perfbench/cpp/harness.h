#ifndef PERFBENCH_CPP_HARNESS_H_
#define PERFBENCH_CPP_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/instance.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny input sizes, for the smoke check (run.py --smoke).
  bool smoke = false;
};

/// Set-ups per run: at least kMinSetupReps, then more while the set-ups so
/// far took less than kSetupBudgetS, up to kMaxSetupReps. setup_s is their
/// median, and the last one is used.
constexpr size_t kMinSetupReps = 7;
constexpr size_t kMaxSetupReps = 256;
constexpr double kSetupBudgetS = 1.0;

/// What one workload run measured. End-to-end numbers come from the timed
/// operations; `layers` is filled by the traced run only.
/// A calibration: the time of CalibrationMs() taken just before operation
/// `op` (op_ms index) started, and of ParallelCalibrationMs() when the
/// workload's operations fan out (Result::parallel), else 0.
struct Calibration {
  size_t op = 0;
  double ms = 0;
  double parallel_ms = 0;
};

struct Result {
  std::vector<double> setup_s;      // per set-up repetition, at nominal speed
  std::vector<double> raw_setup_s;  // the same, as measured
  std::vector<double> op_ms;    // latency of every timed operation
  // Per operation, aligned with op_ms: the workload's work units (see
  // README.md) and the operation time they count against.
  std::vector<double> op_work;
  std::vector<double> op_work_ms;
  std::vector<Calibration> calibrations;
  // Operations per schedule cycle: every `window` consecutive operations
  // run the same mix.
  size_t window = 1;
  // The long operations fan out over the thread pool: op_ms.p90 and the
  // rates are scaled by ParallelCalibrationMs(), op_ms.p50 and set-up by
  // CalibrationMs().
  bool parallel = false;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;     // first few, for stderr
  std::map<std::string, double> layers;  // per-layer metrics

  void Fail(const std::string& why);
  /// Credits `units` of work done in `ms` to the last timed operation.
  void Work(double units, double ms);
  /// True while another set-up repetition should run (see kMinSetupReps).
  bool MoreSetUps() const;
  /// Records one set-up repetition that took `ms`, and a calibration after it.
  void AddSetUp(double ms);
};

/// Times a fixed piece of benchmark-side work (no library code: inserts and
/// probes in a 512 KiB open-addressing table of SplitMix64 keys, the shape
/// of the evaluator's fact tables) three times and returns the fastest, in
/// ms. The host's speed drifts by up to half within minutes, for compute
/// and memory alike; every time figure is scaled by
/// kCalibrationNominalMs / the calibrations around it, so it reads as if
/// the calibration took exactly kCalibrationNominalMs.
double CalibrationMs();
/// The same work on nproc threads at once, three times; returns the fastest
/// round's mean time per thread, in ms. The speed of one core says little
/// about an operation spread over all of them: on `check` the deep checks
/// (four threads) spread more across runs when scaled by CalibrationMs()
/// than unscaled.
double ParallelCalibrationMs();
constexpr double kCalibrationNominalMs = 0.5;
/// Busy time between two calibrations during the timed loop.
constexpr double kCalibrationEveryS = 0.05;

/// Operations per block: whole schedule cycles, at least this many.
constexpr size_t kMinBlockOps = 32;
/// The block quantile a run reports: latencies are the blocks' 25th
/// percentile, throughputs their 75th.
constexpr double kQuietQuantile = 0.25;

/// The end-to-end figures of a run. The host's shared caches slow every
/// operation by up to half for seconds at a time, so the run is cut into
/// consecutive blocks of whole schedule cycles, each block gets its own
/// latency quantiles and throughput (Σ numerator / Σ seconds, the numerator
/// 1 per operation or the operation's work), and the run reports the block
/// figures at the quiet quartile (kQuietQuantile). A run shorter than one
/// block is one block.
struct EndToEnd {
  double p50 = 0;
  double p90 = 0;
  double ops_per_s = 0;
  double work_per_s = 0;
  size_t blocks = 0;
  size_t block_ops = 0;
  // The same figures without the calibration scaling, for the stamp.
  double raw_p50 = 0;
  double raw_p90 = 0;
  double raw_ops_per_s = 0;
  double calibration_ms = 0;           // median of the run's calibrations
  double parallel_calibration_ms = 0;  // the same, parallel (0: not taken)
};
EndToEnd Summarize(const Result& result);

/// The closed-loop generator: one operation at a time, the next starting
/// when the previous returns, until `seconds` of busy time are spent.
/// Verification between operations runs outside the timed region; a hard
/// wall cap keeps a run inside its time limit whatever the references cost.
class Loop {
 public:
  Loop(const Options& options, Result* result);

  /// True while the run should issue another operation.
  bool More() const;
  uint64_t ops() const { return ops_; }

  /// Times `fn` as one end-to-end operation, recorded in op_ms.
  template <class F>
  double Time(F&& fn) {
    if (busy_s_ >= next_calibration_s_) {
      result_->calibrations.push_back(
          {result_->op_ms.size(), CalibrationMs(),
           result_->parallel ? ParallelCalibrationMs() : 0});
      next_calibration_s_ = busy_s_ + kCalibrationEveryS;
    }
    const Clock::time_point t0 = Clock::now();
    fn();
    const double ms = MsSince(t0);
    busy_s_ += ms / 1000;
    result_->op_ms.push_back(ms);
    ++result_->attempted;
    ++ops_;
    return ms;
  }

  /// Times extra busy work of a traced operation (replays, reference
  /// timings): counts toward the run's busy time, not toward op_ms.
  template <class F>
  void Busy(F&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    busy_s_ += MsSince(t0) / 1000;
  }

  /// Runs a reference check outside the timed region; VerifyBudget says
  /// whether the checks so far took at most `share` of the busy time.
  template <class F>
  void Verify(F&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    verify_s_ += MsSince(t0) / 1000;
  }
  bool VerifyBudget(double share) const {
    return verify_s_ <= share * std::max(busy_s_, 0.5);
  }

 private:
  const Options& options_;
  Result* result_;
  Clock::time_point start_;
  double busy_s_ = 0;
  double next_calibration_s_ = 0;
  double verify_s_ = 0;
  uint64_t ops_ = 0;
};

/// Order-independent fingerprint of a fact set: count plus two hash sums.
struct Fingerprint {
  size_t facts = 0;
  uint64_t sum = 0;
  uint64_t mix = 0;

  void Add(mondet::PredId pred, std::span<const mondet::ElemId> args);
  bool operator==(const Fingerprint& o) const {
    return facts == o.facts && sum == o.sum && mix == o.mix;
  }
};

/// Fingerprint of every fact of `inst`, or only of those over `preds`.
Fingerprint FingerprintOf(const mondet::Instance& inst,
                          const std::unordered_set<mondet::PredId>* preds =
                              nullptr);

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Process CPU time (all threads, user + system), in seconds.
double CpuSeconds();
/// Peak resident set size of the process, in MiB.
double PeakRssMb();

/// The traced run's operations, split into traced and untraced ones: the
/// tracing overhead compares their median latencies, and process CPU per
/// wall second is taken over the traced ones.
class TraceSplit {
 public:
  void Add(bool traced, double ms, double cpu_s);
  /// Sets trace.overhead_pct and base.thread_pool.cpu_per_wall.
  void Report(std::map<std::string, double>* layers) const;

 private:
  std::vector<double> traced_ms_, untraced_ms_;
  double cpu_s_ = 0;
  double wall_s_ = 0;
};

/// Cycles through a pool of `n` indices in seeded shuffled rounds, so every
/// input recurs at the same rate whatever the seed.
class Cycle {
 public:
  Cycle(size_t n, std::mt19937_64& rng) : rng_(rng), order_(n) {}
  size_t Next();

 private:
  std::mt19937_64& rng_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
  bool shuffled_ = false;
};

/// The four workloads; each fills `result` (and `tracer` when tracing).
void RunCheck(const Options& options, Tracer& tracer, Result* result);
void RunFixpoint(const Options& options, Tracer& tracer, Result* result);
void RunChurn(const Options& options, Tracer& tracer, Result* result);
void RunContainment(const Options& options, Tracer& tracer, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_HARNESS_H_
