#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>

namespace perfbench {

void Result::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Result::Work(double units, double ms) {
  op_work.resize(op_ms.size());
  op_work_ms.resize(op_ms.size());
  op_work.back() += units;
  op_work_ms.back() += ms;
}

bool Result::MoreSetUps() const {
  if (setup_s.size() < kMinSetupReps) return true;
  double total = 0;
  for (double s : setup_s) total += s;
  return setup_s.size() < kMaxSetupReps && total < kSetupBudgetS;
}

void Result::AddSetUp(double ms) {
  const double c = CalibrationMs();
  raw_setup_s.push_back(ms / 1000);
  setup_s.push_back(ms / 1000 * kCalibrationNominalMs / c);
}

namespace {

/// A SplitMix64 round of its own, so that a change to the library's hash
/// does not change the calibration.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr size_t kSlots = size_t{1} << 16;  // 512 KiB of uint64_t

/// One round of the calibration work on `table` (kSlots entries), in ms.
double CalibrationRoundMs(std::vector<uint64_t>& table) {
  constexpr size_t kKeys = 24000;
  const Clock::time_point t0 = Clock::now();
  std::fill(table.begin(), table.end(), 0);
  uint64_t found = 0;
  for (size_t pass = 0; pass < 3; ++pass) {
    for (uint64_t k = 1; k <= kKeys; ++k) {
      const uint64_t key = Mix(k);
      for (size_t slot = key & (kSlots - 1);; slot = (slot + 1) & (kSlots - 1)) {
        if (table[slot] == key) {
          ++found;
          break;
        }
        if (table[slot] == 0) {
          table[slot] = key;
          break;
        }
      }
    }
  }
  const double ms = MsSince(t0);
  if (found != 2 * kKeys) std::abort();  // the table lost a key
  return ms;
}

}  // namespace

double CalibrationMs() {
  static std::vector<uint64_t> table(kSlots);
  double best = 0;
  for (int round = 0; round < 3; ++round) {
    const double ms = CalibrationRoundMs(table);
    if (round == 0 || ms < best) best = ms;
  }
  return best;
}

double ParallelCalibrationMs() {
  constexpr int kRounds = 3;
  static const int n =
      std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  static std::vector<std::vector<uint64_t>> tables(
      n, std::vector<uint64_t>(kSlots));
  std::vector<double> ms(static_cast<size_t>(n) * kRounds);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Spin until every thread reached this round, so they run at once.
        arrived.fetch_add(1);
        while (arrived.load() < n * (round + 1)) {
        }
        ms[round * n + t] = CalibrationRoundMs(tables[t]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  double best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double sum = 0;
    for (int t = 0; t < n; ++t) sum += ms[round * n + t];
    if (round == 0 || sum / n < best) best = sum / n;
  }
  return best;
}

EndToEnd Summarize(const Result& r) {
  const size_t n = r.op_ms.size();
  EndToEnd e;
  const size_t window = std::max<size_t>(1, r.window);
  e.block_ops = std::max<size_t>(
      1, std::min(n, (kMinBlockOps + window - 1) / window * window));
  std::vector<double> all_calibrations, all_parallel;
  for (const Calibration& c : r.calibrations) {
    all_calibrations.push_back(c.ms);
    all_parallel.push_back(c.parallel_ms);
  }
  e.calibration_ms = Median(all_calibrations);
  e.parallel_calibration_ms = Median(all_parallel);
  std::vector<double> p50, p90, ops, work, raw_p50, raw_p90, raw_ops;
  size_t next = 0;  // first calibration not before the block
  for (size_t start = 0; start + e.block_ops <= n; start += e.block_ops) {
    const size_t end = start + e.block_ops;
    // The block's speed: its calibrations and the one right after it, or
    // the last one before it when it has none.
    while (next < r.calibrations.size() && r.calibrations[next].op < start) {
      ++next;
    }
    std::vector<double> cal, parallel_cal;
    for (size_t c = next;
         c < r.calibrations.size() && r.calibrations[c].op <= end; ++c) {
      cal.push_back(r.calibrations[c].ms);
      parallel_cal.push_back(r.calibrations[c].parallel_ms);
    }
    if (cal.empty() && next > 0) {
      cal.push_back(r.calibrations[next - 1].ms);
      parallel_cal.push_back(r.calibrations[next - 1].parallel_ms);
    }
    const double scale =
        cal.empty() ? 1.0 : kCalibrationNominalMs / Median(cal);
    // The scale for op_ms.p90 and the rates.
    const double long_scale =
        !r.parallel || parallel_cal.empty()
            ? scale
            : kCalibrationNominalMs / Median(parallel_cal);
    const std::vector<double> ms(r.op_ms.begin() + start,
                                 r.op_ms.begin() + end);
    double total_ms = 0, units = 0, work_ms = 0;
    for (size_t i = start; i < end; ++i) {
      total_ms += r.op_ms[i];
      if (i < r.op_work.size()) {
        units += r.op_work[i];
        work_ms += r.op_work_ms[i];
      }
    }
    raw_p50.push_back(Quantile(ms, 0.5));
    raw_p90.push_back(Quantile(ms, 0.9));
    p50.push_back(raw_p50.back() * scale);
    p90.push_back(raw_p90.back() * long_scale);
    if (total_ms > 0) {
      raw_ops.push_back(e.block_ops / total_ms * 1000);
      ops.push_back(raw_ops.back() / long_scale);
    }
    if (work_ms > 0) work.push_back(units / work_ms * 1000 / long_scale);
  }
  e.blocks = p50.size();
  e.p50 = Quantile(p50, kQuietQuantile);
  e.p90 = Quantile(p90, kQuietQuantile);
  e.ops_per_s = Quantile(ops, 1 - kQuietQuantile);
  e.work_per_s = Quantile(work, 1 - kQuietQuantile);
  e.raw_p50 = Quantile(raw_p50, kQuietQuantile);
  e.raw_p90 = Quantile(raw_p90, kQuietQuantile);
  e.raw_ops_per_s = Quantile(raw_ops, 1 - kQuietQuantile);
  return e;
}

Loop::Loop(const Options& options, Result* result)
    : options_(options), result_(result), start_(Clock::now()) {}

bool Loop::More() const {
  if (busy_s_ >= options_.seconds) return false;
  // Hard wall cap: busy time plus verification never exceeds this.
  return MsSince(start_) / 1000 < 1.5 * options_.seconds + 3;
}

void Fingerprint::Add(mondet::PredId pred,
                      std::span<const mondet::ElemId> args) {
  const uint64_t h = mondet::HashFactKey(pred, args);
  ++facts;
  sum += h;
  mix ^= mondet::SplitMix64(h);
}

Fingerprint FingerprintOf(const mondet::Instance& inst,
                          const std::unordered_set<mondet::PredId>* preds) {
  Fingerprint fp;
  for (uint32_t g = 0; g < inst.num_facts(); ++g) {
    const mondet::FactView f = inst.ViewAt(g);
    if (preds != nullptr && preds->count(f.pred) == 0) continue;
    fp.Add(f.pred, f.args);
  }
  return fp;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // process image before exec, so under a Python parent it read the
  // parent's 18 MiB whatever the workload did.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

void TraceSplit::Add(bool traced, double ms, double cpu_s) {
  (traced ? traced_ms_ : untraced_ms_).push_back(ms);
  if (traced) {
    cpu_s_ += cpu_s;
    wall_s_ += ms / 1000;
  }
}

void TraceSplit::Report(std::map<std::string, double>* layers) const {
  const double u = Median(untraced_ms_);
  (*layers)["trace.overhead_pct"] =
      u > 0 ? (Median(traced_ms_) / u - 1) * 100 : 0;
  (*layers)["base.thread_pool.cpu_per_wall"] =
      wall_s_ > 0 ? cpu_s_ / wall_s_ : 0;
}

size_t Cycle::Next() {
  if (!shuffled_ || pos_ == order_.size()) {
    std::iota(order_.begin(), order_.end(), size_t{0});
    std::shuffle(order_.begin(), order_.end(), rng_);
    shuffled_ = true;
    pos_ = 0;
  }
  return order_[pos_++];
}

}  // namespace perfbench
