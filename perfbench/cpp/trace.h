#ifndef PERFBENCH_CPP_TRACE_H_
#define PERFBENCH_CPP_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are opened and closed
/// by Tracer::Scope around calls into one layer of the library; each span
/// carries its name, start, end, parent span and the id of the operation
/// it belongs to. Per-name totals (count, wall, self = wall minus the time
/// covered by child spans) are kept for every span; the raw span records
/// are kept up to a cap and written out by Write at exit.
///
/// Single-threaded: spans are recorded by the benchmark's own (closed-loop)
/// thread only, around public library calls.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Spans open only while active; the traced run alternates traced and
  /// untraced operations to measure the tracing overhead.
  bool active() const { return enabled_ && active_; }
  void set_active(bool on) { active_ = on; }
  /// Tags the spans that follow with operation `op`; while active, the
  /// operation's input label is kept for the trace file.
  void set_op(uint64_t op, const std::string& label);

  /// RAII span; does nothing unless the tracer is active.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  /// Totals of every span named `name` (zeros when none was recorded).
  Totals Get(const std::string& name) const;
  /// Mean span wall time of `name`, in ms; 0 when no span was recorded.
  double MeanMs(const std::string& name) const;
  double TotalMs(const std::string& name) const;

  /// Writes names, per-name totals and the kept span records as JSON.
  /// Returns false if the file could not be written.
  bool Write(const std::string& path, const std::string& stamp_json) const;

 private:
  struct Frame {
    int name = 0;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    int64_t record = -1;  // index into records_, or -1 when over the cap
  };
  struct Record {
    int name = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    uint64_t op = 0;
  };

  int Intern(const char* name);
  void Begin(const char* name);
  void End();

  /// Span records kept for the trace file; totals count every span.
  static constexpr size_t kMaxRecords = 200000;

  bool enabled_;
  bool active_ = true;
  uint64_t op_ = 0;
  int64_t epoch_ns_ = 0;
  size_t dropped_ = 0;
  std::vector<const char*> name_ptrs_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::vector<std::pair<uint64_t, std::string>> op_labels_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_TRACE_H_
