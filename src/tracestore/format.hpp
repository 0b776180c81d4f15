// On-disk layout of the v2 chunked trace format and its byte-level codecs.
//
// A v2 file is a fixed 64-byte header, `chunk_count` back-to-back chunks,
// and a trailing chunk index (one little-endian uint64 file offset per
// chunk) so readers can seek without scanning:
//
//   header        magic "XORIDXT2", header/chunk-capacity fields, total
//                 access count, chunk count, index offset, TraceId
//   chunk         28-byte header (count, min/max address, payload bytes)
//                 followed by the payload: per access a varint of the
//                 zigzag-encoded address delta (the delta base resets to 0
//                 at every chunk boundary, so chunks decode independently),
//                 then `count` raw kind bytes
//   chunk index   chunk_count x uint64 offsets, at header.index_offset
//
// Typical traces delta-compress to 2-4 bytes per access versus the 9 bytes
// of the v1 record format. The v1 layout (magic "XORIDXT1", uint64 count,
// 9-byte fixed records) is also described here so the store can stream
// both formats from one place.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace xoridx::tracestore {

inline constexpr std::array<char, 8> v1_magic = {'X', 'O', 'R', 'I',
                                                 'D', 'X', 'T', '1'};
inline constexpr std::array<char, 8> v2_magic = {'X', 'O', 'R', 'I',
                                                 'D', 'X', 'T', '2'};

inline constexpr std::size_t v1_header_bytes = 16;  ///< magic + count
inline constexpr std::size_t v1_record_bytes = 9;   ///< uint64 addr + kind

inline constexpr std::size_t v2_header_bytes = 64;
inline constexpr std::size_t v2_chunk_header_bytes = 28;

/// Default maximum accesses per chunk: large enough to amortize the
/// per-chunk header and index entry. Readers decode a chunk straight into
/// the caller's batch, so the capacity bounds no buffer.
inline constexpr std::uint32_t default_chunk_capacity = 1u << 16;

// Field offsets inside the v2 file header.
inline constexpr std::size_t v2_off_magic = 0;
inline constexpr std::size_t v2_off_header_bytes = 8;     // uint32
inline constexpr std::size_t v2_off_chunk_capacity = 12;  // uint32
inline constexpr std::size_t v2_off_access_count = 16;    // uint64
inline constexpr std::size_t v2_off_chunk_count = 24;     // uint64
inline constexpr std::size_t v2_off_index_offset = 32;    // uint64
inline constexpr std::size_t v2_off_id_lo = 40;           // uint64
inline constexpr std::size_t v2_off_id_hi = 48;           // uint64

// ------------------------------------------------------- little endian

inline void store_le32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

inline void store_le64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

inline std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// ---------------------------------------------------- zigzag + varint

inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Append v as LEB128 (7 bits per byte, MSB = continuation).
inline void put_varint(std::vector<unsigned char>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<unsigned char>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<unsigned char>(v));
}

/// Decode one varint from [p, end); advances p. Throws on overrun or an
/// overlong (> 10 byte) encoding.
inline std::uint64_t get_varint(const unsigned char*& p,
                                const unsigned char* end) {
  std::uint64_t v = 0;
  int shift = 0;
  while (p < end) {
    const unsigned char byte = *p++;
    // At shift 63 only the low bit fits; any higher payload bit or a
    // continuation bit would need bits >= 64 (and shifting further would
    // be UB), so reject both here.
    if (shift >= 63 && (byte & 0xfeu) != 0)
      throw std::runtime_error("trace chunk: varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) return v;
    shift += 7;
  }
  throw std::runtime_error("trace chunk: truncated varint");
}

// ----------------------------------------------------------- chunk header

struct ChunkHeader {
  std::uint32_t count = 0;         ///< accesses in this chunk
  std::uint64_t min_addr = 0;      ///< smallest byte address in the chunk
  std::uint64_t max_addr = 0;      ///< largest byte address in the chunk
  std::uint32_t payload_bytes = 0; ///< encoded payload length after header
};

inline void encode_chunk_header(unsigned char* p, const ChunkHeader& h) {
  store_le32(p + 0, h.count);
  store_le64(p + 4, h.min_addr);
  store_le64(p + 12, h.max_addr);
  store_le32(p + 20, h.payload_bytes);
  store_le32(p + 24, 0);  // reserved
}

inline ChunkHeader decode_chunk_header(const unsigned char* p) {
  ChunkHeader h;
  h.count = load_le32(p + 0);
  h.min_addr = load_le64(p + 4);
  h.max_addr = load_le64(p + 12);
  h.payload_bytes = load_le32(p + 20);
  return h;
}

}  // namespace xoridx::tracestore
