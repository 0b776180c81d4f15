#include "trace/trace.hpp"

#include <algorithm>
#include <unordered_set>

namespace xoridx::trace {

TraceStats Trace::stats(int block_offset_bits) const {
  TraceStats s;
  s.references = size();
  if (empty()) return s;
  s.min_addr = addresses_.front();
  s.max_addr = addresses_.front();
  std::unordered_set<std::uint64_t> blocks;
  for (const AccessKind kind : kinds_) {
    switch (kind) {
      case AccessKind::read: ++s.reads; break;
      case AccessKind::write: ++s.writes; break;
      case AccessKind::fetch: ++s.fetches; break;
    }
  }
  for (const std::uint64_t addr : addresses_) {
    s.min_addr = std::min(s.min_addr, addr);
    s.max_addr = std::max(s.max_addr, addr);
    blocks.insert(addr >> block_offset_bits);
  }
  s.distinct_blocks = blocks.size();
  return s;
}

std::vector<std::uint64_t> Trace::block_addresses(int block_offset_bits) const {
  std::vector<std::uint64_t> blocks;
  blocks.reserve(size());
  for (const std::uint64_t addr : addresses_)
    blocks.push_back(addr >> block_offset_bits);
  return blocks;
}

Trace filter_kinds(const Trace& t, bool keep_reads, bool keep_writes,
                   bool keep_fetches) {
  Trace out;
  for (const Access& a : t) {
    const bool keep = (a.kind == AccessKind::read && keep_reads) ||
                      (a.kind == AccessKind::write && keep_writes) ||
                      (a.kind == AccessKind::fetch && keep_fetches);
    if (keep) out.append(a);
  }
  return out;
}

}  // namespace xoridx::trace
