#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_ns_(NowNs()) {}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer.active() ? &tracer : nullptr) {
  if (tracer_ != nullptr) tracer_->Begin(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->End();
}

void Tracer::set_op(uint64_t op, const std::string& label) {
  op_ = op;
  if (active() && records_.size() < kMaxRecords) {
    op_labels_.emplace_back(op, label);
  }
}

int Tracer::Intern(const char* name) {
  for (size_t i = 0; i < name_ptrs_.size(); ++i) {
    if (name_ptrs_[i] == name || std::strcmp(name_ptrs_[i], name) == 0) {
      return static_cast<int>(i);
    }
  }
  name_ptrs_.push_back(name);
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

void Tracer::Begin(const char* name) {
  Frame f;
  f.name = Intern(name);
  f.start_ns = NowNs();
  if (records_.size() < kMaxRecords) {
    f.record = static_cast<int64_t>(records_.size());
    Record r;
    r.name = f.name;
    r.start_ns = f.start_ns - epoch_ns_;
    r.parent = stack_.empty() ? -1 : stack_.back().record;
    r.op = op_;
    records_.push_back(r);
  } else {
    ++dropped_;
  }
  stack_.push_back(f);
}

void Tracer::End() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const int64_t end = NowNs();
  const int64_t dur = end - f.start_ns;
  Totals& t = totals_[f.name];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - f.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.record >= 0) records_[f.record].end_ns = end - epoch_ns_;
}

Tracer::Totals Tracer::Get(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return Totals{};
}

double Tracer::MeanMs(const std::string& name) const {
  const Totals t = Get(name);
  return t.count == 0 ? 0.0 : t.total_ns / 1e6 / static_cast<double>(t.count);
}

double Tracer::TotalMs(const std::string& name) const {
  return Get(name).total_ns / 1e6;
}

bool Tracer::Write(const std::string& path,
                   const std::string& stamp_json) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"stamp\": %s,\n\"summary\": {", stamp_json.c_str());
  for (size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 i == 0 ? "" : ",", names_[i].c_str(),
                 static_cast<unsigned long long>(totals_[i].count),
                 totals_[i].total_ns / 1e6, totals_[i].self_ns / 1e6);
  }
  std::fprintf(f, "},\n\"names\": [");
  for (size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fprintf(f, "],\n\"op_labels\": [");
  for (size_t i = 0; i < op_labels_.size(); ++i) {
    std::fprintf(f, "%s[%llu, \"%s\"]", i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(op_labels_[i].first),
                 op_labels_[i].second.c_str());
  }
  std::fprintf(f,
               "],\n\"dropped_spans\": %zu,\n"
               "\"span_fields\": [\"name\", \"start_ns\", \"end_ns\", "
               "\"parent\", \"op\"],\n\"spans\": [",
               dropped_);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%s\n[%d, %lld, %lld, %lld, %llu]", i == 0 ? "" : ",",
                 r.name, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
