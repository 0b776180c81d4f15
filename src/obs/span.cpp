#include "obs/span.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"  // now_ns()
#include "serve/json.hpp"

namespace xoridx::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};
std::atomic<std::uint64_t> g_trace_base_ns{0};

/// Process identity for the trace export (set_trace_process).
std::atomic<std::uint32_t> g_trace_pid{1};
std::mutex g_process_label_mutex;
std::string g_process_label;  // NOLINT: guarded by g_process_label_mutex

/// Per-thread ring buffer. The owning thread is the only writer; the
/// exporter reads `size` with acquire and sees fully-written events.
/// Drop-newest on overflow keeps the earliest spans (the interesting
/// ramp-up) and counts what was lost.
struct SpanBuffer {
  explicit SpanBuffer(std::uint32_t tid_in) : tid(tid_in) {
    events.resize(span_buffer_capacity);
  }
  std::uint32_t tid;
  std::vector<SpanEvent> events;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};

  void push(SpanEvent ev) {
    const std::size_t n = size.load(std::memory_order_relaxed);
    if (n >= events.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events[n] = std::move(ev);
    size.store(n + 1, std::memory_order_release);
  }
};

struct BufferList {
  std::mutex mutex;
  std::vector<std::shared_ptr<SpanBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

BufferList& buffer_list() {
  static BufferList list;
  return list;
}

/// The calling thread's buffer, created and registered on first use.
/// The shared_ptr in the global list keeps it alive past thread exit so
/// the exporter still sees a finished worker's spans.
SpanBuffer& local_buffer() {
  thread_local std::shared_ptr<SpanBuffer> buffer = [] {
    BufferList& list = buffer_list();
    std::lock_guard lock(list.mutex);
    auto b = std::make_shared<SpanBuffer>(list.next_tid++);
    list.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void set_trace_enabled(bool enabled) noexcept {
  if (enabled) {
    std::uint64_t expected = 0;
    g_trace_base_ns.compare_exchange_strong(expected, now_ns(),
                                            std::memory_order_relaxed);
  }
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

bool trace_enabled() noexcept {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_process(std::uint32_t pid, std::string label) {
  g_trace_pid.store(pid, std::memory_order_relaxed);
  std::lock_guard lock(g_process_label_mutex);
  g_process_label = std::move(label);
}

Span::Span(const char* category, const char* name) noexcept
    : category_(category), name_(name) {
  active_ = trace_enabled();
  flight_ = flight_recorder_armed();
  if (active_ || flight_) start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_ && !flight_) return;
  const std::uint64_t end = now_ns();
  if (flight_) flight_record(category_, name_, start_ns_, end - start_ns_);
  if (!active_) return;
  local_buffer().push(SpanEvent{category_, name_, start_ns_,
                                end - start_ns_, std::move(detail_)});
}

void Span::detail(std::string text) {
  if (active_) detail_ = std::move(text);
}

void write_chrome_trace(std::ostream& os) {
  const std::uint64_t base = g_trace_base_ns.load(std::memory_order_relaxed);
  // Microseconds with the nanosecond remainder as a 3-digit fraction.
  const auto us = [](std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return std::string(buf);
  };
  const std::uint32_t pid = g_trace_pid.load(std::memory_order_relaxed);
  os << "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [";
  bool first = true;
  {
    std::lock_guard label_lock(g_process_label_mutex);
    if (!g_process_label.empty()) {
      os << "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
         << pid << ", \"args\": {\"name\": "
         << serve::json_quote(g_process_label) << "}}";
      first = false;
    }
  }
  BufferList& list = buffer_list();
  std::lock_guard lock(list.mutex);
  for (const std::shared_ptr<SpanBuffer>& buf : list.buffers) {
    const std::size_t n = buf->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const SpanEvent& ev = buf->events[i];
      const std::uint64_t rel =
          ev.start_ns >= base ? ev.start_ns - base : 0;
      os << (first ? "\n" : ",\n") << "  {\"name\": "
         << serve::json_quote(ev.name) << ", \"cat\": "
         << serve::json_quote(ev.category)
         << ", \"ph\": \"X\", \"pid\": " << pid
         << ", \"tid\": " << buf->tid
         << ", \"ts\": " << us(rel) << ", \"dur\": " << us(ev.dur_ns);
      if (!ev.detail.empty())
        os << ", \"args\": {\"detail\": " << serve::json_quote(ev.detail)
           << "}";
      os << "}";
      first = false;
    }
  }
  os << "\n ]}\n";
}

std::uint64_t spans_dropped() noexcept {
  BufferList& list = buffer_list();
  std::lock_guard lock(list.mutex);
  std::uint64_t total = 0;
  for (const std::shared_ptr<SpanBuffer>& buf : list.buffers)
    total += buf->dropped.load(std::memory_order_relaxed);
  return total;
}

void clear_spans() noexcept {
  BufferList& list = buffer_list();
  std::lock_guard lock(list.mutex);
  for (const std::shared_ptr<SpanBuffer>& buf : list.buffers) {
    buf->size.store(0, std::memory_order_relaxed);
    buf->dropped.store(0, std::memory_order_relaxed);
  }
}

}  // namespace xoridx::obs
