#include "tracestore/writer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "fail/failpoint.hpp"

namespace xoridx::tracestore {

namespace {

/// The tracestore layer reports I/O failure by exception; the atomic
/// writer reports it by Status. Bridge the two, keeping the path in the
/// message.
void check(const api::Status& status) {
  if (!status.ok()) throw std::runtime_error(std::string(status.message()));
}

void check_failpoint(const std::string& path) {
  if (int injected = XORIDX_FAILPOINT("tracestore.write"); injected != 0)
    throw std::runtime_error("trace write failed: " + path + ": " +
                             std::strerror(injected));
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path,
                         std::uint32_t chunk_capacity)
    : path_(path), out_(path), chunk_capacity_(chunk_capacity) {
  if (chunk_capacity_ == 0)
    throw std::invalid_argument("chunk capacity must be nonzero");
  check(out_.open());
  pending_.reserve(chunk_capacity_);
  // Placeholder header; finish() patches the totals in place.
  unsigned char header[v2_header_bytes] = {};
  std::copy(v2_magic.begin(), v2_magic.end(),
            reinterpret_cast<char*>(header + v2_off_magic));
  store_le32(header + v2_off_header_bytes,
             static_cast<std::uint32_t>(v2_header_bytes));
  store_le32(header + v2_off_chunk_capacity, chunk_capacity_);
  check(out_.write(header, v2_header_bytes));
}

TraceWriter::~TraceWriter() {
  if (finished_) return;
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; the atomic writer abandons its temp
    // file, so a half-written trace never reaches the destination path.
  }
}

void TraceWriter::append(const trace::Access& a) {
  if (finished_)
    throw std::logic_error("append after finish on trace writer");
  pending_.push_back(a);
  hasher_.update(a);
  ++count_;
  if (pending_.size() >= chunk_capacity_) flush_chunk();
}

void TraceWriter::flush_chunk() {
  if (pending_.empty()) return;
  check_failpoint(path_);
  ChunkHeader h;
  h.count = static_cast<std::uint32_t>(pending_.size());
  h.min_addr = pending_.front().addr;
  h.max_addr = pending_.front().addr;

  scratch_.clear();
  // Addresses: zigzag varint deltas, base 0 at every chunk boundary so
  // chunks decode independently (a reader can enter any chunk by itself).
  std::uint64_t prev = 0;
  for (const trace::Access& a : pending_) {
    put_varint(scratch_, zigzag_encode(static_cast<std::int64_t>(a.addr - prev)));
    prev = a.addr;
    h.min_addr = std::min(h.min_addr, a.addr);
    h.max_addr = std::max(h.max_addr, a.addr);
  }
  for (const trace::Access& a : pending_)
    scratch_.push_back(static_cast<unsigned char>(a.kind));
  h.payload_bytes = static_cast<std::uint32_t>(scratch_.size());

  chunk_offsets_.push_back(out_.offset());
  unsigned char header[v2_chunk_header_bytes];
  encode_chunk_header(header, h);
  check(out_.write(header, v2_chunk_header_bytes));
  check(out_.write(scratch_.data(), scratch_.size()));
  pending_.clear();
}

TraceId TraceWriter::finish() {
  if (finished_) return hasher_.digest();
  flush_chunk();
  check_failpoint(path_);
  const std::uint64_t index_offset = out_.offset();
  for (const std::uint64_t off : chunk_offsets_) {
    unsigned char buf[8];
    store_le64(buf, off);
    check(out_.write(buf, 8));
  }

  const TraceId id = hasher_.digest();
  unsigned char totals[v2_header_bytes - v2_off_access_count];
  store_le64(totals + 0, count_);
  store_le64(totals + 8, chunk_offsets_.size());
  store_le64(totals + 16, index_offset);
  store_le64(totals + 24, id.lo);
  store_le64(totals + 32, id.hi);
  store_le64(totals + 40, 0);  // reserved
  check(out_.write_at(v2_off_access_count, totals, sizeof(totals)));
  check(out_.commit());
  finished_ = true;
  return id;
}

TraceId save_trace_v2(const std::string& path, TraceInput t,
                      std::uint32_t chunk_capacity) {
  TraceWriter writer(path, chunk_capacity);
  t.for_each_batch([&writer](std::span<const trace::Access> batch) {
    for (const trace::Access& a : batch) writer.append(a);
  });
  return writer.finish();
}

}  // namespace xoridx::tracestore
