// Memory access traces and their summary statistics.
//
// A Trace stores its accesses as two columns, the byte addresses and the
// access kinds, so a resident trace costs 9 bytes per access where an
// array of padded Access records would cost 16. Element access and
// iteration still hand out Access values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "trace/access.hpp"

namespace xoridx::trace {

/// Aggregate statistics of a trace.
struct TraceStats {
  std::uint64_t references = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t fetches = 0;
  std::uint64_t distinct_blocks = 0;  ///< footprint at the given block size
  std::uint64_t min_addr = 0;
  std::uint64_t max_addr = 0;
};

/// An ordered sequence of memory references. This is the single input to
/// both the profiling phase (paper Section 3.1) and cache simulation.
class Trace {
 public:
  /// Iterates the trace in order, yielding each Access by value.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Access;
    using difference_type = std::ptrdiff_t;
    using reference = Access;

    Iterator() = default;
    Iterator(const Trace* trace, std::size_t i) : trace_(trace), i_(i) {}

    Access operator*() const { return (*trace_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const Trace* trace_ = nullptr;
    std::size_t i_ = 0;
  };

  Trace() = default;

  void append(Access a) { append(a.addr, a.kind); }
  void append(std::uint64_t addr, AccessKind kind) {
    addresses_.push_back(addr);
    kinds_.push_back(kind);
  }

  [[nodiscard]] std::size_t size() const noexcept { return addresses_.size(); }
  [[nodiscard]] bool empty() const noexcept { return addresses_.empty(); }
  [[nodiscard]] Access operator[](std::size_t i) const {
    return {addresses_[i], kinds_[i]};
  }
  [[nodiscard]] std::span<const std::uint64_t> addresses() const noexcept {
    return addresses_;
  }
  [[nodiscard]] std::span<const AccessKind> kinds() const noexcept {
    return kinds_;
  }

  [[nodiscard]] Iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] Iterator end() const noexcept { return {this, size()}; }

  void reserve(std::size_t n) {
    addresses_.reserve(n);
    kinds_.reserve(n);
  }
  void clear() {
    addresses_.clear();
    kinds_.clear();
  }

  /// Statistics at a given block size (block_offset_bits = log2 of the
  /// block size in bytes; the paper uses 4-byte blocks, i.e. 2).
  [[nodiscard]] TraceStats stats(int block_offset_bits) const;

  /// The sequence of block addresses (addr >> block_offset_bits).
  [[nodiscard]] std::vector<std::uint64_t> block_addresses(
      int block_offset_bits) const;

  friend bool operator==(const Trace&, const Trace&) = default;

 private:
  std::vector<std::uint64_t> addresses_;
  std::vector<AccessKind> kinds_;  ///< kinds_[i] belongs to addresses_[i]
};

/// Keep only references of the given kinds (e.g. the data side of a
/// unified trace for a split data cache).
[[nodiscard]] Trace filter_kinds(const Trace& t, bool keep_reads,
                                 bool keep_writes, bool keep_fetches);

}  // namespace xoridx::trace
