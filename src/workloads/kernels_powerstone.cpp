#include "workloads/kernels_powerstone.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "workloads/checksum.hpp"

namespace xoridx::workloads {

namespace {

class Lcg {
 public:
  explicit Lcg(std::uint32_t seed) : state_(seed) {}
  std::uint32_t next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_;
  }
  std::uint32_t next(std::uint32_t bound) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(next()) * bound) >> 32);
  }

 private:
  std::uint32_t state_;
};

}  // namespace

// ---------------------------------------------------------------------------
// bcnt
// ---------------------------------------------------------------------------

std::uint64_t run_bcnt(TraceContext& ctx, int buffer_bytes, int passes) {
  const auto bytes = static_cast<std::size_t>(buffer_bytes);
  // LUT in globals, buffer on the heap (page-aligned): at small cache
  // sizes the buffer walks over the LUT's sets once per page.
  TracedArray<std::uint8_t> lut(ctx, 256);
  TracedArray<std::uint8_t> buffer(ctx, bytes, page_alignment);

  for (std::size_t i = 0; i < 256; ++i)
    lut.write(i, static_cast<std::uint8_t>(
                     std::popcount(static_cast<unsigned>(i))));
  Lcg rng(0xbc47u);
  for (std::size_t i = 0; i < bytes; ++i)
    buffer.write(i, static_cast<std::uint8_t>(rng.next(256)));

  std::uint64_t total = 0;
  for (int p = 0; p < passes; ++p)
    for (std::size_t i = 0; i < bytes; ++i)
      total += lut.read(buffer.read(i));
  return total;
}

// ---------------------------------------------------------------------------
// blit
// ---------------------------------------------------------------------------

std::uint64_t run_blit(TraceContext& ctx, int width_words, int height,
                       int shift_bits, int passes) {
  const auto w = static_cast<std::size_t>(width_words);
  const auto h = static_cast<std::size_t>(height);
  // The destination bitmap sits directly after the source (offset
  // w*h + 1 words), so under modulo indexing the store into dst[s] lands
  // on the set of src[s+1] — exactly the word the shift-merge reads
  // again on the next iteration. That read-write-read ping-pong is the
  // classic direct-mapped blit conflict, removable by XOR-indexing
  // because the two blocks differ in an address bit above the index.
  TracedArray<std::uint32_t> src(ctx, w * h + 1, page_alignment);
  TracedArray<std::uint32_t> dst(ctx, w * h);

  Lcg rng(0xb117u);
  for (std::size_t i = 0; i < w * h + 1; ++i) src.write(i, rng.next());

  const int sh = shift_bits & 31;
  for (int p = 0; p < passes; ++p) {
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        const std::size_t s = y * w + x;
        const std::uint32_t lo = src.read(s);
        const std::uint32_t hi = src.read(s + 1);
        const std::uint32_t merged =
            sh == 0 ? lo : ((lo << sh) | (hi >> (32 - sh)));
        dst.write(s, merged);
      }
    }
  }

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (std::size_t i = 0; i < w * h; ++i)
    checksum = fnv1a_word(checksum, dst.peek(i));
  return checksum;
}

// ---------------------------------------------------------------------------
// compress (LZW, UNIX compress structure)
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> compress_test_input(int bytes) {
  // English-like synthetic text: repeated word pool with deterministic
  // selection, giving the dictionary realistic hit rates.
  static constexpr const char* words[] = {
      "the ",    "cache ",   "index ",  "conflict ", "miss ",  "hash ",
      "vector ", "address ", "block ",  "set ",      "xor ",   "function ",
      "tag ",    "line ",    "stride ", "profile ",  "trace ", "search "};
  std::vector<std::uint8_t> input;
  input.reserve(static_cast<std::size_t>(bytes));
  Lcg rng(0xc03bu);
  while (input.size() < static_cast<std::size_t>(bytes)) {
    const char* word = words[rng.next(18)];
    for (const char* p = word; *p != '\0'; ++p)
      input.push_back(static_cast<std::uint8_t>(*p));
  }
  input.resize(static_cast<std::size_t>(bytes));
  return input;
}

namespace lzw {

constexpr std::size_t table_size = 4096;  // 12-bit codes
constexpr std::uint16_t first_code = 256;

std::size_t probe(std::uint32_t key, std::size_t attempt) {
  return (key * 2654435761u + attempt * 97u) % table_size;
}

}  // namespace lzw

std::uint64_t run_compress(TraceContext& ctx, int input_bytes) {
  const std::vector<std::uint8_t> text = compress_test_input(input_bytes);
  TracedArray<std::uint8_t> input(ctx, text);
  TracedArray<std::int32_t> hash_key(ctx, lzw::table_size);   // prefix<<8|c
  TracedArray<std::uint16_t> hash_code(ctx, lzw::table_size);
  TracedArray<std::uint16_t> output(ctx, text.size());

  for (std::size_t i = 0; i < lzw::table_size; ++i) hash_key.write(i, -1);

  std::uint16_t next_code = lzw::first_code;
  std::size_t out_count = 0;
  std::int32_t prefix = input.read(0);
  for (std::size_t i = 1; i < text.size(); ++i) {
    const std::uint8_t c = input.read(i);
    const std::uint32_t key = (static_cast<std::uint32_t>(prefix) << 8) | c;
    bool found = false;
    std::size_t slot = 0;
    for (std::size_t attempt = 0; attempt < lzw::table_size; ++attempt) {
      slot = lzw::probe(key, attempt);
      const std::int32_t stored = hash_key.read(slot);
      if (stored == static_cast<std::int32_t>(key)) {
        found = true;
        break;
      }
      if (stored < 0) break;
    }
    if (found) {
      prefix = hash_code.read(slot);
      continue;
    }
    output.write(out_count++, static_cast<std::uint16_t>(prefix));
    if (next_code < lzw::table_size) {
      hash_key.write(slot, static_cast<std::int32_t>(key));
      hash_code.write(slot, next_code++);
    }
    prefix = c;
  }
  output.write(out_count++, static_cast<std::uint16_t>(prefix));

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (std::size_t i = 0; i < out_count; ++i) {
    checksum = fnv1a(checksum, output.peek(i) & 0xffu);
    checksum = fnv1a(checksum, (output.peek(i) >> 8) & 0xffu);
  }
  return checksum;
}

std::vector<std::uint16_t> compress_reference_codes(int input_bytes) {
  const std::vector<std::uint8_t> text = compress_test_input(input_bytes);
  std::vector<std::int32_t> hash_key(lzw::table_size, -1);
  std::vector<std::uint16_t> hash_code(lzw::table_size, 0);
  std::vector<std::uint16_t> codes;

  std::uint16_t next_code = lzw::first_code;
  std::int32_t prefix = text[0];
  for (std::size_t i = 1; i < text.size(); ++i) {
    const std::uint8_t c = text[i];
    const std::uint32_t key = (static_cast<std::uint32_t>(prefix) << 8) | c;
    bool found = false;
    std::size_t slot = 0;
    for (std::size_t attempt = 0; attempt < lzw::table_size; ++attempt) {
      slot = lzw::probe(key, attempt);
      if (hash_key[slot] == static_cast<std::int32_t>(key)) {
        found = true;
        break;
      }
      if (hash_key[slot] < 0) break;
    }
    if (found) {
      prefix = hash_code[slot];
      continue;
    }
    codes.push_back(static_cast<std::uint16_t>(prefix));
    if (next_code < lzw::table_size) {
      hash_key[slot] = static_cast<std::int32_t>(key);
      hash_code[slot] = next_code++;
    }
    prefix = c;
  }
  codes.push_back(static_cast<std::uint16_t>(prefix));
  return codes;
}

std::vector<std::uint8_t> lzw_decompress_reference(
    const std::vector<std::uint16_t>& codes) {
  std::vector<std::pair<std::uint16_t, std::uint8_t>> dict;  // (prefix, byte)
  dict.reserve(lzw::table_size);
  auto expand = [&](std::uint16_t code) {
    std::vector<std::uint8_t> seq;
    while (code >= lzw::first_code) {
      const auto& entry = dict[code - lzw::first_code];
      seq.push_back(entry.second);
      code = entry.first;
    }
    seq.push_back(static_cast<std::uint8_t>(code));
    std::reverse(seq.begin(), seq.end());
    return seq;
  };

  std::vector<std::uint8_t> out;
  if (codes.empty()) return out;
  std::uint16_t prev = codes[0];
  std::vector<std::uint8_t> prev_seq = expand(prev);
  out.insert(out.end(), prev_seq.begin(), prev_seq.end());
  for (std::size_t i = 1; i < codes.size(); ++i) {
    const std::uint16_t code = codes[i];
    std::vector<std::uint8_t> seq;
    const std::uint16_t limit =
        static_cast<std::uint16_t>(lzw::first_code + dict.size());
    if (code < limit) {
      seq = expand(code);
    } else {
      // The KwKwK special case.
      seq = prev_seq;
      seq.push_back(prev_seq[0]);
    }
    if (lzw::first_code + dict.size() < lzw::table_size)
      dict.emplace_back(prev, seq[0]);
    out.insert(out.end(), seq.begin(), seq.end());
    prev = code;
    prev_seq = std::move(seq);
  }
  return out;
}

// ---------------------------------------------------------------------------
// crc (CRC-32, IEEE 802.3, table driven)
// ---------------------------------------------------------------------------

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32_reference(const std::uint8_t* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::uint64_t run_crc(TraceContext& ctx, int buffer_bytes, int passes) {
  const auto bytes = static_cast<std::size_t>(buffer_bytes);
  const std::array<std::uint32_t, 256> table_values = make_crc_table();
  TracedArray<std::uint32_t> table(
      ctx, std::vector<std::uint32_t>(table_values.begin(),
                                      table_values.end()));
  TracedArray<std::uint8_t> buffer(ctx, bytes);

  Lcg rng(0xc2c32u);
  for (std::size_t i = 0; i < bytes; ++i)
    buffer.write(i, static_cast<std::uint8_t>(rng.next(256)));

  std::uint32_t crc = 0;
  for (int p = 0; p < passes; ++p) {
    crc = 0xffffffffu;
    for (std::size_t i = 0; i < bytes; ++i)
      crc = table.read((crc ^ buffer.read(i)) & 0xffu) ^ (crc >> 8);
    crc ^= 0xffffffffu;
  }
  return crc;
}

// ---------------------------------------------------------------------------
// des (FIPS 46-3)
// ---------------------------------------------------------------------------

namespace des {

// Standard DES tables; entries are 1-based bit positions, MSB = bit 1.
constexpr std::array<int, 64> ip = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

constexpr std::array<int, 64> fp = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr std::array<int, 48> expansion = {
    32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,  8,  9,  10, 11,
    12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
    22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

constexpr std::array<int, 32> pbox = {
    16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23, 26, 5,  18, 31, 10,
    2,  8, 24, 14, 32, 27, 3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

constexpr std::array<int, 56> pc1 = {
    57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
    10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
    14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

constexpr std::array<int, 48> pc2 = {
    14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10, 23, 19, 12, 4,
    26, 8,  16, 7,  27, 20, 13, 2,  41, 52, 31, 37, 47, 55, 30, 40,
    51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr std::array<int, 16> shifts = {1, 1, 2, 2, 2, 2, 2, 2,
                                        1, 2, 2, 2, 2, 2, 2, 1};

constexpr std::array<std::array<std::uint8_t, 64>, 8> sboxes = {{
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}}};

/// Apply a 1-based-position permutation taking `in_bits`-wide input to a
/// table.size()-wide output (MSB-first convention, as in FIPS 46-3).
template <std::size_t N>
std::uint64_t permute(std::uint64_t value, const std::array<int, N>& table,
                      int in_bits) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const int src = in_bits - table[i];  // bit position from LSB
    out = (out << 1) | ((value >> src) & 1u);
  }
  return out;
}

void make_subkeys(std::uint64_t key, std::uint64_t subkeys[16]) {
  const std::uint64_t cd = permute(key, pc1, 64);
  std::uint32_t c = static_cast<std::uint32_t>(cd >> 28) & 0x0fffffffu;
  std::uint32_t d = static_cast<std::uint32_t>(cd) & 0x0fffffffu;
  for (int round = 0; round < 16; ++round) {
    const int s = shifts[static_cast<std::size_t>(round)];
    c = ((c << s) | (c >> (28 - s))) & 0x0fffffffu;
    d = ((d << s) | (d >> (28 - s))) & 0x0fffffffu;
    const std::uint64_t merged =
        (static_cast<std::uint64_t>(c) << 28) | d;
    subkeys[round] = permute(merged, pc2, 56);
  }
}

/// The Feistel f-function with an S-box reader abstracted so the traced
/// and untraced variants share the code.
template <typename SboxReader>
std::uint32_t feistel(std::uint32_t r, std::uint64_t subkey,
                      SboxReader&& sbox_at) {
  const std::uint64_t expanded = permute(r, expansion, 32) ^ subkey;
  std::uint32_t s_out = 0;
  for (int box = 0; box < 8; ++box) {
    const auto six =
        static_cast<std::uint32_t>((expanded >> (42 - 6 * box)) & 0x3fu);
    const std::uint32_t row = ((six >> 4) & 2u) | (six & 1u);
    const std::uint32_t col = (six >> 1) & 0xfu;
    s_out = (s_out << 4) | sbox_at(box, row * 16 + col);
  }
  return static_cast<std::uint32_t>(permute(s_out, pbox, 32));
}

template <typename SboxReader>
std::uint64_t crypt_block(std::uint64_t block, const std::uint64_t subkeys[16],
                          bool decrypt, SboxReader&& sbox_at) {
  const std::uint64_t permuted = permute(block, ip, 64);
  std::uint32_t l = static_cast<std::uint32_t>(permuted >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(permuted);
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t k = subkeys[decrypt ? 15 - round : round];
    const std::uint32_t next = l ^ feistel(r, k, sbox_at);
    l = r;
    r = next;
  }
  // Final swap then FP.
  const std::uint64_t preoutput =
      (static_cast<std::uint64_t>(r) << 32) | l;
  return permute(preoutput, fp, 64);
}

}  // namespace des

std::uint64_t des_block_reference(std::uint64_t key, std::uint64_t block,
                                  bool decrypt) {
  std::uint64_t subkeys[16];
  des::make_subkeys(key, subkeys);
  return des::crypt_block(block, subkeys, decrypt,
                          [](int box, std::uint32_t idx) {
                            return static_cast<std::uint32_t>(
                                des::sboxes[static_cast<std::size_t>(box)]
                                           [idx]);
                          });
}

std::uint64_t run_des(TraceContext& ctx, int blocks) {
  const auto nblocks = static_cast<std::size_t>(blocks);
  // S-boxes as one traced 8x64 table, plus subkeys and data buffers.
  TracedArray<std::uint8_t> sbox_mem(ctx, 8 * 64);
  TracedArray<std::uint32_t> subkey_mem(ctx, 32);  // 16 x (hi, lo)
  TracedArray<std::uint32_t> input(ctx, nblocks * 2);
  TracedArray<std::uint32_t> output(ctx, nblocks * 2);

  for (std::size_t box = 0; box < 8; ++box)
    for (std::size_t i = 0; i < 64; ++i)
      sbox_mem.write(box * 64 + i, des::sboxes[box][i]);

  const std::uint64_t key = 0x133457799bbcdff1ull;
  std::uint64_t subkeys[16];
  des::make_subkeys(key, subkeys);
  for (std::size_t i = 0; i < 16; ++i) {
    subkey_mem.write(2 * i, static_cast<std::uint32_t>(subkeys[i] >> 32));
    subkey_mem.write(2 * i + 1, static_cast<std::uint32_t>(subkeys[i]));
  }

  Lcg rng(0xde5u);
  for (std::size_t i = 0; i < nblocks * 2; ++i) input.write(i, rng.next());

  auto traced_sbox = [&](int box, std::uint32_t idx) {
    return static_cast<std::uint32_t>(
        sbox_mem.read(static_cast<std::size_t>(box) * 64 + idx));
  };

  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::uint64_t block =
        (static_cast<std::uint64_t>(input.read(2 * b)) << 32) |
        input.read(2 * b + 1);
    // Re-read the scheduled subkeys from memory each block, as the
    // PowerStone kernel does.
    std::uint64_t sk[16];
    for (std::size_t i = 0; i < 16; ++i)
      sk[i] = (static_cast<std::uint64_t>(subkey_mem.read(2 * i)) << 32) |
              subkey_mem.read(2 * i + 1);
    const std::uint64_t cipher =
        des::crypt_block(block, sk, /*decrypt=*/false, traced_sbox);
    output.write(2 * b, static_cast<std::uint32_t>(cipher >> 32));
    output.write(2 * b + 1, static_cast<std::uint32_t>(cipher));
  }

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (std::size_t i = 0; i < nblocks * 2; ++i)
    checksum = fnv1a_word(checksum, output.peek(i));
  return checksum;
}

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

std::uint64_t run_engine(TraceContext& ctx, int samples) {
  constexpr std::size_t map_dim = 16;
  // The two calibration maps are separate page-aligned tables read at the
  // same (rpm, load) coordinates every sample: under modulo indexing the
  // bilinear fetches ping-pong in small caches, a fully removable
  // conflict pattern (engine shows one of the largest Table 3 wins).
  TracedArray<std::int32_t> spark_map(ctx, map_dim * map_dim,
                                      page_alignment);
  TracedArray<std::int32_t> fuel_map(ctx, map_dim * map_dim, page_alignment);
  // Control outputs go to a small reused actuator ring; sensor values
  // arrive from I/O registers, not memory, so they are computed inline.
  TracedArray<std::int32_t> outputs(ctx, 64);

  for (std::size_t r = 0; r < map_dim; ++r) {
    for (std::size_t l = 0; l < map_dim; ++l) {
      spark_map.write(r * map_dim + l,
                      static_cast<std::int32_t>(10 + 2 * r + l));
      fuel_map.write(r * map_dim + l,
                     static_cast<std::int32_t>(100 + 3 * r + 5 * l));
    }
  }
  Lcg rng(0xe6c1u);

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (int i = 0; i < samples; ++i) {
    // Slowly varying rpm/load with jitter, like a drive cycle.
    const std::int32_t rpm =
        800 + (i % 977) * 6 + static_cast<std::int32_t>(rng.next(120));
    const std::int32_t load =
        10 + (i % 499) / 8 + static_cast<std::int32_t>(rng.next(10));
    // Map coordinates with 8-bit interpolation fractions.
    const std::int32_t rx = std::clamp((rpm - 800) * 15 * 256 / 6400, 0,
                                       15 * 256 - 1);
    const std::int32_t lx =
        std::clamp(load * 15 * 256 / 100, 0, 15 * 256 - 1);
    const std::size_t r0 = static_cast<std::size_t>(rx >> 8);
    const std::size_t l0 = static_cast<std::size_t>(lx >> 8);
    const std::int32_t rf = rx & 0xff;
    const std::int32_t lf = lx & 0xff;
    auto bilinear = [&](TracedArray<std::int32_t>& map) {
      const std::int32_t v00 = map.read(r0 * map_dim + l0);
      const std::int32_t v01 = map.read(r0 * map_dim + l0 + 1);
      const std::int32_t v10 = map.read((r0 + 1) * map_dim + l0);
      const std::int32_t v11 = map.read((r0 + 1) * map_dim + l0 + 1);
      const std::int32_t top = v00 * (256 - lf) + v01 * lf;
      const std::int32_t bottom = v10 * (256 - lf) + v11 * lf;
      return (top * (256 - rf) + bottom * rf) >> 16;
    };
    const std::int32_t spark = bilinear(spark_map);
    const std::int32_t fuel = bilinear(fuel_map);
    outputs.write(static_cast<std::size_t>(i) % outputs.size(),
                  spark * 256 + fuel);
    checksum = fnv1a_word(checksum,
                          static_cast<std::uint64_t>(spark * 256 + fuel));
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// fir
// ---------------------------------------------------------------------------

std::uint64_t run_fir(TraceContext& ctx, int taps, int samples) {
  constexpr std::size_t chunk_samples = 256;  // 1-KB DMA-style blocks
  const auto ntaps = static_cast<std::size_t>(taps);
  const auto count = static_cast<std::size_t>(samples);
  // Streaming DSP layout: coefficients and the delay line are 1-KB-
  // aligned buffers read in lockstep every sample (they alias in a 1 KB
  // cache), and samples move through reused page-aligned I/O chunks that
  // alias each other in 1 and 4 KB caches.
  TracedArray<std::int32_t> coeffs(ctx, ntaps, 1024);
  TracedArray<std::int32_t> delay(ctx, ntaps, 1024);
  TracedArray<std::int32_t> input(ctx, chunk_samples, page_alignment);
  TracedArray<std::int32_t> output(ctx, chunk_samples, page_alignment);

  // Symmetric low-pass-like integer coefficients.
  for (std::size_t i = 0; i < ntaps; ++i) {
    const std::int64_t centered =
        static_cast<std::int64_t>(i) - static_cast<std::int64_t>(ntaps) / 2;
    coeffs.write(i, static_cast<std::int32_t>(256 - 4 * centered * centered));
    delay.write(i, 0);
  }

  Lcg rng(0xf17u);
  std::uint64_t checksum = io::fnv1a_short_basis;
  std::size_t head = 0;
  for (std::size_t done = 0; done < count; done += chunk_samples) {
    const std::size_t batch = std::min(chunk_samples, count - done);
    // "Read" the next block of samples.
    for (std::size_t i = 0; i < batch; ++i)
      input.write(i, static_cast<std::int32_t>(rng.next(2048)) - 1024);

    for (std::size_t i = 0; i < batch; ++i) {
      delay.write(head, input.read(i));
      head = (head + 1) % ntaps;
      std::int64_t acc = 0;
      for (std::size_t t = 0; t < ntaps; ++t)
        acc += static_cast<std::int64_t>(delay.read((head + t) % ntaps)) *
               coeffs.read(t);
      output.write(i, static_cast<std::int32_t>(acc >> 8));
    }
    // "Write" the filtered block out.
    for (std::size_t i = 0; i < batch; ++i)
      checksum = fnv1a_word(checksum,
                            static_cast<std::uint64_t>(
                                static_cast<std::uint32_t>(output.peek(i))));
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// g3fax
// ---------------------------------------------------------------------------

std::uint64_t run_g3fax(TraceContext& ctx, int line_bits, int lines) {
  const auto line_bytes = static_cast<std::size_t>(line_bits) / 8;
  // Synthetic run-length stream: alternating white/black runs.
  std::vector<std::uint16_t> run_data;
  Lcg rng(0x93fa1u);
  for (int line = 0; line < lines; ++line) {
    int remaining = line_bits;
    while (remaining > 0) {
      const int run = std::min<int>(
          remaining, 1 + static_cast<int>(rng.next(
                             line == 0 ? 64 : 192)));  // varied run lengths
      run_data.push_back(static_cast<std::uint16_t>(run));
      remaining -= run;
    }
    run_data.push_back(0);  // EOL
  }

  TracedArray<std::uint16_t> runs(ctx, run_data);
  TracedArray<std::uint8_t> page(ctx,
                                 line_bytes * static_cast<std::size_t>(lines));
  // Terminating-code length table stands in for the Huffman code widths.
  TracedArray<std::uint8_t> code_len(ctx, 256);
  for (std::size_t i = 0; i < 256; ++i)
    code_len.write(i, static_cast<std::uint8_t>(2 + (i * 7) % 11));

  std::size_t run_pos = 0;
  std::uint64_t bits_consumed = 0;
  for (int line = 0; line < lines; ++line) {
    const std::size_t base = static_cast<std::size_t>(line) * line_bytes;
    std::size_t bit = 0;
    bool black = false;
    for (;;) {
      const std::uint16_t run = runs.read(run_pos++);
      if (run == 0) break;  // EOL
      bits_consumed += code_len.read(run & 0xff);
      if (black) {
        // Set `run` bits starting at `bit` (read-modify-write per byte).
        std::size_t remaining = run;
        std::size_t at = bit;
        while (remaining > 0) {
          const std::size_t byte_index = base + at / 8;
          const std::size_t bit_in_byte = at % 8;
          const std::size_t chunk =
              std::min<std::size_t>(remaining, 8 - bit_in_byte);
          const std::uint8_t mask = static_cast<std::uint8_t>(
              ((1u << chunk) - 1u) << bit_in_byte);
          page.write(byte_index,
                     static_cast<std::uint8_t>(page.read(byte_index) | mask));
          at += chunk;
          remaining -= chunk;
        }
      }
      bit += run;
      black = !black;
    }
  }

  std::uint64_t checksum = fnv1a_word(io::fnv1a_short_basis, bits_consumed);
  for (std::size_t i = 0; i < page.size(); ++i)
    checksum = fnv1a(checksum, page.peek(i));
  return checksum;
}

// ---------------------------------------------------------------------------
// pocsag
// ---------------------------------------------------------------------------

std::uint64_t run_pocsag(TraceContext& ctx, int batches) {
  // A POCSAG batch: 16 codewords of 32 bits. Decode: deinterleave,
  // compute the BCH(31,21) syndrome, correct single-bit errors via a
  // syndrome->position table, collect message words.
  constexpr std::uint32_t generator = 0x769;  // x^10+x^9+x^8+x^6+x^5+x^3+1

  auto bch_syndrome = [](std::uint32_t cw) {
    std::uint32_t reg = cw >> 1;  // drop parity bit
    for (int i = 30; i >= 10; --i) {
      if ((reg >> i) & 1u) reg ^= generator << (i - 10);
    }
    return reg & 0x3ffu;
  };

  // Syndrome table: syndrome of a single-bit error at each position.
  TracedArray<std::int32_t> syndrome_pos(ctx, 1024);
  TracedArray<std::uint32_t> input(ctx,
                                   static_cast<std::size_t>(batches) * 16);
  TracedArray<std::uint32_t> message(ctx,
                                     static_cast<std::size_t>(batches) * 16);

  for (std::size_t i = 0; i < 1024; ++i) syndrome_pos.write(i, -1);
  for (int bit = 1; bit < 32; ++bit) {
    const std::uint32_t s = bch_syndrome(1u << bit);
    if (s != 0) syndrome_pos.write(s, bit);
  }

  // Valid codewords with occasional injected single-bit errors.
  Lcg rng(0x90c5a9u);
  for (int b = 0; b < batches; ++b) {
    for (int w = 0; w < 16; ++w) {
      const std::uint32_t data = rng.next() & 0x1fffffu;  // 21 data bits
      std::uint32_t cw = data << 11;
      // Systematic BCH encode: append the polynomial remainder.
      std::uint32_t reg = cw >> 1;
      for (int i = 30; i >= 10; --i)
        if ((reg >> i) & 1u) reg ^= generator << (i - 10);
      cw |= (reg & 0x3ffu) << 1;
      if (rng.next(8) == 0) cw ^= 1u << (1 + rng.next(31));  // bit error
      input.write(static_cast<std::size_t>(b * 16 + w), cw);
    }
  }

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (int b = 0; b < batches; ++b) {
    for (int w = 0; w < 16; ++w) {
      std::uint32_t cw = input.read(static_cast<std::size_t>(b * 16 + w));
      const std::uint32_t syn = bch_syndrome(cw);
      if (syn != 0) {
        const std::int32_t pos = syndrome_pos.read(syn);
        if (pos >= 0) cw ^= 1u << pos;  // correct single-bit error
      }
      const std::uint32_t data = cw >> 11;
      message.write(static_cast<std::size_t>(b * 16 + w), data);
      checksum = fnv1a_word(checksum, data);
    }
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// qurt
// ---------------------------------------------------------------------------

std::uint64_t run_qurt(TraceContext& ctx, int equations) {
  TracedArray<std::int32_t> coeff_a(ctx, static_cast<std::size_t>(equations));
  TracedArray<std::int32_t> coeff_b(ctx, static_cast<std::size_t>(equations));
  TracedArray<std::int32_t> coeff_c(ctx, static_cast<std::size_t>(equations));
  TracedArray<std::int32_t> roots(ctx,
                                  static_cast<std::size_t>(equations) * 2);

  Lcg rng(0x4247u);
  for (int i = 0; i < equations; ++i) {
    coeff_a.write(static_cast<std::size_t>(i),
                  1 + static_cast<std::int32_t>(rng.next(9)));
    coeff_b.write(static_cast<std::size_t>(i),
                  static_cast<std::int32_t>(rng.next(200)) - 100);
    coeff_c.write(static_cast<std::size_t>(i),
                  static_cast<std::int32_t>(rng.next(100)) - 120);
  }

  auto isqrt = [](std::int64_t v) {
    if (v <= 0) return std::int64_t{0};
    std::int64_t x = v;
    std::int64_t y = (x + 1) / 2;
    while (y < x) {
      x = y;
      y = (x + v / x) / 2;
    }
    return x;
  };

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (int i = 0; i < equations; ++i) {
    const std::int64_t a = coeff_a.read(static_cast<std::size_t>(i));
    const std::int64_t b = coeff_b.read(static_cast<std::size_t>(i));
    const std::int64_t c = coeff_c.read(static_cast<std::size_t>(i));
    const std::int64_t disc = b * b - 4 * a * c;
    // Fixed-point (x256) roots when real; zero otherwise.
    std::int32_t r1 = 0;
    std::int32_t r2 = 0;
    if (disc >= 0) {
      const std::int64_t sq = isqrt(disc * 256 * 256);
      r1 = static_cast<std::int32_t>(((-b * 256) + sq) / (2 * a));
      r2 = static_cast<std::int32_t>(((-b * 256) - sq) / (2 * a));
    }
    roots.write(static_cast<std::size_t>(2 * i), r1);
    roots.write(static_cast<std::size_t>(2 * i + 1), r2);
    checksum = fnv1a_word(
        checksum, static_cast<std::uint64_t>(static_cast<std::uint32_t>(r1)) ^
                      (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(r2))
                       << 32));
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// ucbqsort
// ---------------------------------------------------------------------------

std::uint64_t run_ucbqsort(TraceContext& ctx, int elements) {
  const auto count = static_cast<std::size_t>(elements);
  TracedArray<std::int32_t> data(ctx, count);
  Lcg rng(0x4504u);
  for (std::size_t i = 0; i < count; ++i)
    data.write(i, static_cast<std::int32_t>(rng.next()));

  // Iterative quicksort with an explicit range stack and median-of-three
  // pivots, the ucbqsort structure. Signed indices keep the Hoare scans
  // trivially underflow-free.
  struct Range {
    std::int64_t lo;
    std::int64_t hi;
  };
  auto at = [&](std::int64_t i) {
    return data.read(static_cast<std::size_t>(i));
  };
  auto put = [&](std::int64_t i, std::int32_t v) {
    data.write(static_cast<std::size_t>(i), v);
  };
  std::vector<Range> stack;
  stack.push_back({0, static_cast<std::int64_t>(count) - 1});
  while (!stack.empty()) {
    const Range range = stack.back();
    stack.pop_back();
    const std::int64_t lo = range.lo;
    const std::int64_t hi = range.hi;
    if (lo >= hi) continue;
    if (hi - lo < 8) {
      // Insertion sort for small ranges.
      for (std::int64_t i = lo + 1; i <= hi; ++i) {
        const std::int32_t v = at(i);
        std::int64_t j = i;
        while (j > lo && at(j - 1) > v) {
          put(j, at(j - 1));
          --j;
        }
        put(j, v);
      }
      continue;
    }
    const std::int64_t mid = lo + (hi - lo) / 2;
    const std::int32_t a = at(lo);
    const std::int32_t b = at(mid);
    const std::int32_t c = at(hi);
    const std::int32_t pivot =
        std::max(std::min(a, b), std::min(std::max(a, b), c));
    std::int64_t i = lo;
    std::int64_t j = hi;
    while (i <= j) {
      while (at(i) < pivot) ++i;
      while (at(j) > pivot) --j;
      if (i <= j) {
        const std::int32_t t = at(i);
        put(i, at(j));
        put(j, t);
        ++i;
        --j;
      }
    }
    if (lo < j) stack.push_back({lo, j});
    if (i < hi) stack.push_back({i, hi});
  }

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (std::size_t i = 0; i < count; ++i)
    checksum = fnv1a_word(checksum, static_cast<std::uint64_t>(
                                        static_cast<std::uint32_t>(
                                            data.peek(i))));
  return checksum;
}

// ---------------------------------------------------------------------------
// v42 (V.42bis-style trie dictionary compression)
// ---------------------------------------------------------------------------

namespace {

/// Modem-style v42 input: interleaved protocol headers, text fragments
/// and semi-compressible binary payload (distinct from the compress
/// corpus so the two dictionary kernels exercise different streams).
std::vector<std::uint8_t> v42_test_input(int bytes) {
  std::vector<std::uint8_t> input;
  input.reserve(static_cast<std::size_t>(bytes));
  Lcg rng(0x42b15u);
  const std::vector<std::uint8_t> text = compress_test_input(bytes / 2);
  std::size_t text_pos = 0;
  while (input.size() < static_cast<std::size_t>(bytes)) {
    // Frame header: flag, address, control, length.
    input.push_back(0x7e);
    input.push_back(0xff);
    input.push_back(static_cast<std::uint8_t>(rng.next(4)));
    const std::size_t payload = 16 + rng.next(48);
    input.push_back(static_cast<std::uint8_t>(payload));
    for (std::size_t i = 0; i < payload; ++i) {
      if (rng.next(4) == 0) {
        input.push_back(static_cast<std::uint8_t>(rng.next(256)));
      } else {
        input.push_back(text[text_pos % text.size()]);
        ++text_pos;
      }
    }
  }
  input.resize(static_cast<std::size_t>(bytes));
  return input;
}

}  // namespace

std::uint64_t run_v42(TraceContext& ctx, int input_bytes) {
  constexpr std::size_t dict_size = 2048;
  const std::vector<std::uint8_t> text = v42_test_input(input_bytes);

  TracedArray<std::uint8_t> input(ctx, text);
  TracedArray<std::int16_t> first_child(ctx, dict_size);
  TracedArray<std::int16_t> next_sibling(ctx, dict_size);
  TracedArray<std::uint8_t> symbol(ctx, dict_size);
  TracedArray<std::uint16_t> output(ctx, text.size());

  // Nodes 0..255 are the single-byte roots.
  for (std::size_t i = 0; i < dict_size; ++i) {
    first_child.write(i, -1);
    next_sibling.write(i, -1);
    symbol.write(i, static_cast<std::uint8_t>(i < 256 ? i : 0));
  }

  std::int32_t next_node = 256;
  std::size_t out_count = 0;
  std::int32_t node = input.read(0);
  for (std::size_t i = 1; i < text.size(); ++i) {
    const std::uint8_t c = input.read(i);
    // Walk the sibling chain looking for child `c` of `node`.
    std::int32_t child = first_child.read(static_cast<std::size_t>(node));
    std::int32_t prev = -1;
    while (child >= 0 &&
           symbol.read(static_cast<std::size_t>(child)) != c) {
      prev = child;
      child = next_sibling.read(static_cast<std::size_t>(child));
    }
    if (child >= 0) {
      node = child;
      continue;
    }
    // Miss: emit the current node and extend the dictionary.
    output.write(out_count++, static_cast<std::uint16_t>(node));
    if (next_node < static_cast<std::int32_t>(dict_size)) {
      symbol.write(static_cast<std::size_t>(next_node), c);
      if (prev < 0)
        first_child.write(static_cast<std::size_t>(node),
                          static_cast<std::int16_t>(next_node));
      else
        next_sibling.write(static_cast<std::size_t>(prev),
                           static_cast<std::int16_t>(next_node));
      ++next_node;
    }
    node = c;
  }
  output.write(out_count++, static_cast<std::uint16_t>(node));

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (std::size_t i = 0; i < out_count; ++i) {
    checksum = fnv1a(checksum, output.peek(i) & 0xffu);
    checksum = fnv1a(checksum, (output.peek(i) >> 8) & 0xffu);
  }
  return checksum;
}

}  // namespace xoridx::workloads
