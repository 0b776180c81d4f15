// Stable content identity of a trace.
//
// A TraceId is a 128-bit hash over the access sequence (address + kind, in
// order). Two traces with equal content get equal ids no matter where they
// live — in memory, in a v1 file or in a v2 file — which is what lets the
// engine's ProfileCache share one ConflictProfile between them. The v2
// format stores the id in the file header so file-backed traces are keyed
// without a scan.
#pragma once

#include <cstdint>
#include <string>

#include "io/fnv.hpp"
#include "trace/access.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::tracestore {

struct TraceId {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  /// True for a default-constructed (never hashed) id; digest() never
  /// returns this, so it doubles as "not yet computed".
  [[nodiscard]] bool empty() const noexcept { return lo == 0 && hi == 0; }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const TraceId&, const TraceId&) = default;
};

/// Incremental hasher: feed accesses in trace order, then digest(). Two
/// independent 64-bit mix streams (FNV-1a and a splitmix-style
/// position-dependent mix) give 128 bits against accidental collision.
class TraceIdHasher {
 public:
  void update(std::uint64_t addr, trace::AccessKind kind);
  void update(const trace::Access& a) { update(a.addr, a.kind); }

  [[nodiscard]] TraceId digest() const;

 private:
  std::uint64_t a_ = io::fnv1a_basis;
  std::uint64_t b_ = 0x9ae16a3b2f90404full;
  std::uint64_t count_ = 0;
};

/// Content id of a trace (one pass; a source is reset first).
[[nodiscard]] TraceId trace_id_of(TraceInput t);

}  // namespace xoridx::tracestore
