// spans.hpp — the benchmark's own span recorder.
//
// Spans are recorded from the benchmark's files only, around each public call
// it makes into the model (GlobalGrid, plan_decomposition, LicomModel
// construction and step(), ForecastFarm::run, the allreduce probe). Each
// thread appends to its own buffer, so recording takes no lock; the buffers
// are owned by a process-wide list and outlive the threads (comm::Runtime
// ranks are short-lived threads), and are written out once at exit.
//
// A span carries a process-unique id and the id of the span that caused it.
// Within a thread the parent is the innermost open span; a rank thread's
// first span names its parent explicitly (the span of the thread that
// started the ranks), so the tree crosses the comm::Runtime boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double begin_s = 0.0;  ///< telemetry::now_seconds() clock
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  int tid = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Innermost open span of the calling thread (0 when none).
  std::uint64_t current() const;

  /// Open a span; `parent` = 0 takes the calling thread's innermost span.
  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0);
  void end();

  /// Every recorded span of every thread, in per-thread order.
  std::vector<SpanRecord> collect() const;

  /// Chrome trace-event JSON of every span (pid 1, args.id / args.parent).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    int tid = 0;
    std::vector<SpanRecord> done;
    std::vector<SpanRecord> open;
  };
  ThreadBuffer& local();

  bool enabled_ = false;
  mutable std::mutex mutex_;  ///< guards buffers_ (registration and collect)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; records nothing while the recorder is disabled.
class Span {
 public:
  explicit Span(const std::string& name, std::uint64_t parent = 0) {
    SpanRecorder& r = SpanRecorder::instance();
    if (r.enabled()) {
      active_ = true;
      r.begin(name, parent);
    }
  }
  ~Span() {
    if (active_) SpanRecorder::instance().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

}  // namespace perfbench
