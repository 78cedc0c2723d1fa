// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call the benchmark makes into a layer's public entry point:
// its name, start and end on the steady clock, the span that caused it
// (parent) and the request it belongs to. Spans are appended to a vector
// and only summarized when the run ends, so recording costs two clock reads
// and one push. Self time is a span's duration minus the time its direct
// children cover. Recording is off unless enabled, and a disabled tracer
// records nothing, so the untraced runs that give the end-to-end metrics
// pay only a branch per span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace rsbbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t parent = -1;  // index into the tracer's spans, -1 = root
  std::uint64_t request = 0;
};

/// Per-name totals derived from the recorded spans.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  bool enabled() const noexcept { return enabled_.load(); }
  void set_enabled(bool on) noexcept { enabled_.store(on); }

  /// Opens a span and returns its index (or -1 while disabled). Thread-safe:
  /// the service workload records from two client threads.
  std::int64_t open(const char* name, std::int64_t parent,
                    std::uint64_t request) {
    if (!enabled()) return -1;
    const std::int64_t start = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(SpanRecord{name, start, 0, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void close(std::int64_t index) {
    if (index < 0) return;
    const std::int64_t end = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = end;
  }

  /// Records an already-measured interval as a closed span.
  void record(const char* name, std::int64_t start, std::int64_t end,
              std::int64_t parent, std::uint64_t request) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(SpanRecord{name, start, end, parent, request});
  }

  /// Count, total and self time per span name.
  std::map<std::string, SpanTotals> totals() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] += span.end - span.start;
      }
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SpanTotals& t = out[spans_[i].name];
      const std::int64_t duration = spans_[i].end - spans_[i].start;
      ++t.count;
      t.total_ns += duration;
      t.self_ns += duration - child_ns[i];
    }
    return out;
  }

  /// Durations of every span with this name, in recording order.
  std::vector<double> durations_ms(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const SpanRecord& span : spans_) {
      if (name == span.name) out.push_back((span.end - span.start) / 1e6);
    }
    return out;
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: closes on scope exit.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::int64_t parent = -1,
       std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer.open(name, parent, request)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

}  // namespace rsbbench
