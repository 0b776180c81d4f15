// Pull-based streaming access to a trace, and the one input type of the
// single-pass consumers.
//
// TraceSource is the seam between trace storage and the consumers: a
// consumer repeatedly fills a batch buffer and never learns whether the
// accesses came from an in-memory Trace's address and kind columns, a v1
// file, an mmap'd v2 chunk decoder or a remote fetch. TraceInput is what
// every single-pass consumer (profiling, cache simulation, the optimizer,
// the exhaustive bit-select entry points, the content hash) takes: an
// in-memory Trace or a TraceSource, both converting implicitly, so each
// consumer has one signature and one body.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace xoridx::tracestore {

/// Accesses per batch of every batch loop below.
inline constexpr std::size_t kBatch = 4096;

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Copy up to out.size() accesses, in trace order, into `out`. Returns
  /// the number written; 0 means end of trace.
  virtual std::size_t next_batch(std::span<trace::Access> out) = 0;

  /// Rewind to the first access.
  virtual void reset() = 0;

  /// Total accesses in the trace (known up front for every backend).
  [[nodiscard]] virtual std::uint64_t size() const = 0;
};

/// Adapter over an in-memory Trace, filling each batch from its address
/// and kind columns; optionally shares ownership.
class MemorySource final : public TraceSource {
 public:
  explicit MemorySource(const trace::Trace& t) : trace_(&t) {}
  explicit MemorySource(std::shared_ptr<const trace::Trace> t)
      : owned_(std::move(t)), trace_(owned_.get()) {}

  std::size_t next_batch(std::span<trace::Access> out) override {
    const std::size_t n = std::min(out.size(), trace_->size() - pos_);
    const std::uint64_t* addr = trace_->addresses().data() + pos_;
    const trace::AccessKind* kind = trace_->kinds().data() + pos_;
    for (std::size_t i = 0; i < n; ++i) out[i] = {addr[i], kind[i]};
    pos_ += n;
    return n;
  }

  void reset() override { pos_ = 0; }

  [[nodiscard]] std::uint64_t size() const override { return trace_->size(); }

 private:
  std::shared_ptr<const trace::Trace> owned_;
  const trace::Trace* trace_;
  std::size_t pos_ = 0;
};

/// Drive `f(std::span<const trace::Access>)` over consecutive batches of
/// at most kBatch accesses, from the source's current position to its
/// end. The batch buffer is the only decoded state this adds.
template <typename F>
void for_each_batch(TraceSource& source, F&& f) {
  std::vector<trace::Access> batch(kBatch);
  while (const std::size_t got = source.next_batch(batch))
    f(std::span<const trace::Access>(batch.data(), got));
}

/// Drive `fn(const Access&)` over every access of the source from its
/// current position, batch by batch.
template <typename F>
void for_each_access(TraceSource& source, F&& fn) {
  for_each_batch(source, [&fn](std::span<const trace::Access> batch) {
    for (const trace::Access& a : batch) fn(a);
  });
}

/// Non-owning view of a trace for one or more single-pass consumers. It
/// borrows its argument for the duration of the call that receives it.
/// Each pass starts at the first access and arrives in batches of kBatch
/// accesses, from either arm: an in-memory Trace fills them from its
/// columns, a TraceSource is reset and pulled. Decoded state stays bounded
/// by the batch no matter how long the trace is.
class TraceInput {
 public:
  TraceInput(const trace::Trace& t) noexcept  // NOLINT
      : memory_(&t) {}
  TraceInput(TraceSource& source) noexcept  // NOLINT
      : source_(&source) {}

  /// Total accesses in the trace.
  [[nodiscard]] std::uint64_t size() const {
    return source_ != nullptr ? source_->size() : memory_->size();
  }

  /// One pass: call `f(std::span<const trace::Access>)` for consecutive
  /// batches covering the whole trace, in order.
  template <typename F>
  void for_each_batch(F&& f) const {
    if (source_ == nullptr) {
      MemorySource memory(*memory_);
      tracestore::for_each_batch(memory, f);
      return;
    }
    source_->reset();
    tracestore::for_each_batch(*source_, f);
  }

 private:
  const trace::Trace* memory_ = nullptr;
  TraceSource* source_ = nullptr;
};

/// Materialize the remainder of a source into a Trace (eager fallback).
[[nodiscard]] inline trace::Trace drain_to_trace(TraceSource& source) {
  trace::Trace t;
  t.reserve(static_cast<std::size_t>(source.size()));
  for_each_access(source, [&t](const trace::Access& a) { t.append(a); });
  return t;
}

}  // namespace xoridx::tracestore
