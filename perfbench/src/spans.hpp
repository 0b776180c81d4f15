// In-memory span recording for the traced replay.
//
// Spans are taken around calls into the library's public functions from
// the benchmark's own code (the library itself is not instrumented for
// this). A span's name is "<layer>.<operation>"; its layer is the text
// before the first dot. A layer's self time is the span's duration minus
// the part of it that its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns();

/// Sleep until now_ns() reaches `deadline_ns`.
void sleep_until_ns(std::uint64_t deadline_ns);

struct Span {
  const char* name = "";      ///< static "<layer>.<operation>" literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index into the span vector, -1 = root
  std::int64_t cell = -1;     ///< campaign cell id, -1 = none
};

/// Single-threaded recorder: the parent of a new span is the innermost
/// span still open.
class Tracer {
 public:
  std::size_t begin(const char* name, std::int64_t cell = -1);
  void end(std::size_t id);
  /// A finished span, as a child of the innermost open span.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::int64_t current_cell() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t cell = -1)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, cell) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span).
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans);

[[nodiscard]] std::string_view layer_of(std::string_view span_name);

/// Self nanoseconds per span name and per layer.
struct SelfTimeTable {
  std::map<std::string, std::uint64_t> by_name;
  std::map<std::string, std::uint64_t> by_layer;
  std::uint64_t total_ns = 0;

  /// Seconds of self time of one span name or one layer (0 if absent).
  [[nodiscard]] double name_s(const std::string& name) const;
  [[nodiscard]] double layer_s(const std::string& layer) const;
};
[[nodiscard]] SelfTimeTable tabulate(const std::vector<Span>& spans);

/// Human-readable "where the time goes" table (layer, self s, share).
void print_table(std::ostream& os, const std::string& title,
                 const SelfTimeTable& table);

/// Spans as Chrome trace-event JSON (one complete event per span).
void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans);

}  // namespace perfbench
