#include "tracestore/trace_id.hpp"

#include <cstdio>

namespace xoridx::tracestore {

std::string TraceId::to_string() const {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

void TraceIdHasher::update(std::uint64_t addr, trace::AccessKind kind) {
  for (int i = 0; i < 8; ++i)
    a_ = io::fnv1a(a_, static_cast<unsigned char>(addr >> (8 * i)));
  a_ = io::fnv1a(a_, static_cast<unsigned char>(kind));

  // Second stream: splitmix64 of the access keyed by its position, so
  // reorderings that FNV-1a alone might alias still change the digest.
  std::uint64_t z = addr + 0x9e3779b97f4a7c15ull * (count_ + 1) +
                    static_cast<std::uint64_t>(kind);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  b_ ^= z ^ (z >> 31);
  ++count_;
}

TraceId TraceIdHasher::digest() const {
  // Fold the length in so a trace and its prefix never collide, and keep
  // the empty trace distinct from the all-zero "unset" id.
  return {a_ ^ (count_ + 0x2545f4914f6cdd1dull),
          b_ ^ ((count_ + 1) * 0xda942042e4dd58b5ull)};
}

TraceId trace_id_of(TraceInput t) {
  TraceIdHasher h;
  t.for_each_batch([&h](std::span<const trace::Access> batch) {
    for (const trace::Access& a : batch) h.update(a);
  });
  return h.digest();
}

}  // namespace xoridx::tracestore
