#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {
std::atomic<std::uint64_t> g_next_id{1};
thread_local void* t_buffer = nullptr;  // this thread's ThreadBuffer, owned by the recorder
}  // namespace

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::ThreadBuffer& SpanRecorder::local() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->tid = static_cast<int>(buffers_.size());
    t_buffer = buf.get();
    buffers_.push_back(std::move(buf));
  }
  return *static_cast<ThreadBuffer*>(t_buffer);
}

std::uint64_t SpanRecorder::current() const {
  if (t_buffer == nullptr) return 0;
  const auto& open = static_cast<const ThreadBuffer*>(t_buffer)->open;
  return open.empty() ? 0 : open.back().id;
}

std::uint64_t SpanRecorder::begin(const std::string& name, std::uint64_t parent) {
  ThreadBuffer& buf = local();
  SpanRecord rec;
  rec.name = name;
  rec.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec.parent = parent != 0 ? parent : (buf.open.empty() ? 0 : buf.open.back().id);
  rec.tid = buf.tid;
  rec.begin_s = licomk::telemetry::now_seconds();  // last: exclude our own setup
  buf.open.push_back(std::move(rec));
  return buf.open.back().id;
}

void SpanRecorder::end() {
  const double t = licomk::telemetry::now_seconds();  // first: exclude our own teardown
  ThreadBuffer& buf = local();
  if (buf.open.empty()) throw std::logic_error("perfbench: span end without begin");
  buf.open.back().end_s = t;
  buf.done.push_back(std::move(buf.open.back()));
  buf.open.pop_back();
}

std::vector<SpanRecord> SpanRecorder::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->done.begin(), b->done.end());
  return all;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& s : collect()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "  {\"name\": \"" << licomk::util::json_escape(s.name)
        << "\", \"cat\": \"bench\", \"ph\": \"X\", \"ts\": "
        << licomk::util::json_number(s.begin_s * 1e6)
        << ", \"dur\": " << licomk::util::json_number((s.end_s - s.begin_s) * 1e6)
        << ", \"pid\": 1, \"tid\": " << s.tid << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("perfbench: failed writing " + path);
}

}  // namespace perfbench
