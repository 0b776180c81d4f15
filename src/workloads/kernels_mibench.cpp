#include "workloads/kernels_mibench.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "workloads/checksum.hpp"

namespace xoridx::workloads {

namespace {

/// Deterministic 32-bit LCG (Numerical Recipes constants) for synthetic
/// inputs; independent of the C++ standard library's distributions.
class Lcg {
 public:
  explicit Lcg(std::uint32_t seed) : state_(seed) {}
  std::uint32_t next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_;
  }
  /// Uniform in [0, bound).
  std::uint32_t next(std::uint32_t bound) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(next()) * bound) >> 32);
  }

 private:
  std::uint32_t state_;
};

}  // namespace

// ---------------------------------------------------------------------------
// dijkstra: O(V^2) single-source shortest paths over a dense matrix.
// ---------------------------------------------------------------------------

std::uint64_t run_dijkstra(TraceContext& ctx, int nodes, int sources) {
  constexpr std::int32_t infinity = 0x3fffffff;
  const auto v = static_cast<std::size_t>(nodes);

  // Heap layout: the adjacency matrix and the two hot per-node vectors
  // are separate allocations, hence page-aligned — dist and visited alias
  // each other (and the matrix rows) in small direct-mapped caches.
  TracedArray<std::int32_t> adj(ctx, v * v, page_alignment);
  TracedArray<std::int32_t> dist(ctx, v, page_alignment);
  TracedArray<std::int32_t> visited(ctx, v, page_alignment);

  Lcg rng(0xd1985u);
  for (std::size_t i = 0; i < v; ++i) {
    for (std::size_t j = 0; j < v; ++j) {
      const bool has_edge = i != j && rng.next(100) < 80;
      adj.write(i * v + j,
                has_edge ? static_cast<std::int32_t>(1 + rng.next(100))
                         : infinity);
    }
  }

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (int s = 0; s < sources; ++s) {
    const auto src = static_cast<std::size_t>(s) % v;
    for (std::size_t i = 0; i < v; ++i) {
      dist.write(i, i == src ? 0 : infinity);
      visited.write(i, 0);
    }
    for (std::size_t iter = 0; iter < v; ++iter) {
      // Scan for the nearest unvisited node (MiBench uses no heap).
      std::int32_t best = infinity;
      std::size_t u = v;
      for (std::size_t i = 0; i < v; ++i) {
        if (visited.read(i) == 0) {
          const std::int32_t d = dist.read(i);
          if (d < best) {
            best = d;
            u = i;
          }
        }
      }
      if (u == v) break;
      visited.write(u, 1);
      for (std::size_t j = 0; j < v; ++j) {
        const std::int32_t w = adj.read(u * v + j);
        if (w >= infinity) continue;
        const std::int32_t alt = best + w;
        if (alt < dist.read(j)) dist.write(j, alt);
      }
    }
    for (std::size_t i = 0; i < v; ++i)
      checksum = fnv1a_word(checksum,
                            static_cast<std::uint64_t>(dist.peek(i)));
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// fft: iterative radix-2 DIT with table twiddles.
// ---------------------------------------------------------------------------

std::uint64_t run_fft(TraceContext& ctx, int log2n, int rounds) {
  const std::size_t n = std::size_t{1} << log2n;
  // Separate heap allocations: the re/im arrays alias each other at
  // power-of-two cache sizes, the butterfly's classic conflict pattern.
  TracedArray<float> re(ctx, n, page_alignment);
  TracedArray<float> im(ctx, n, page_alignment);
  TracedArray<float> wr(ctx, n / 2, page_alignment);
  TracedArray<float> wi(ctx, n / 2, page_alignment);

  // Twiddle factors W_n^k = exp(-2*pi*i*k/n); the writes during table
  // construction are part of the program's footprint.
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle =
        -2.0 * 3.14159265358979323846 * static_cast<double>(k) /
        static_cast<double>(n);
    wr.write(k, static_cast<float>(std::cos(angle)));
    wi.write(k, static_cast<float>(std::sin(angle)));
  }

  std::uint64_t checksum = io::fnv1a_short_basis;
  Lcg rng(0xff7u);
  for (int round = 0; round < rounds; ++round) {
    // Fresh deterministic signal: a sum of square waves plus dither.
    for (std::size_t i = 0; i < n; ++i) {
      const float sq1 = (i / 8) % 2 == 0 ? 1.0f : -1.0f;
      const float sq2 = (i / 64) % 2 == 0 ? 0.5f : -0.5f;
      const float dither =
          static_cast<float>(rng.next(1000)) * 1e-4f - 0.05f;
      re.write(i, sq1 + sq2 + dither);
      im.write(i, 0.0f);
    }
    // Bit-reversal permutation (indices computed in registers).
    for (std::size_t i = 0, j = 0; i < n; ++i) {
      if (i < j) {
        const float tr = re.read(i);
        const float ti = im.read(i);
        re.write(i, re.read(j));
        im.write(i, im.read(j));
        re.write(j, tr);
        im.write(j, ti);
      }
      std::size_t bit = n >> 1;
      for (; (j & bit) != 0; bit >>= 1) j ^= bit;
      j ^= bit;
    }
    // Butterfly stages.
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len >> 1;
      const std::size_t twiddle_step = n / len;
      for (std::size_t start = 0; start < n; start += len) {
        for (std::size_t k = 0; k < half; ++k) {
          const std::size_t tw = k * twiddle_step;
          const float c = wr.read(tw);
          const float s = wi.read(tw);
          const std::size_t a = start + k;
          const std::size_t b = a + half;
          const float br = re.read(b);
          const float bi = im.read(b);
          const float tr = br * c - bi * s;
          const float ti = br * s + bi * c;
          const float ar = re.read(a);
          const float ai = im.read(a);
          re.write(a, ar + tr);
          im.write(a, ai + ti);
          re.write(b, ar - tr);
          im.write(b, ai - ti);
        }
      }
    }
    double energy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = re.peek(i);
      const double y = im.peek(i);
      energy += x * x + y * y;
    }
    checksum =
        fnv1a_word(checksum, static_cast<std::uint64_t>(
                                 std::llround(energy / 1024.0)));
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// susan: brightness-similarity smoothing, 37-point circular mask.
// ---------------------------------------------------------------------------

namespace {

/// The classic SUSAN 37-point mask (radius ~3.4), as (dx, dy) offsets.
constexpr std::array<std::array<int, 2>, 37> susan_mask = {{
    {-1, -3}, {0, -3}, {1, -3},
    {-2, -2}, {-1, -2}, {0, -2}, {1, -2}, {2, -2},
    {-3, -1}, {-2, -1}, {-1, -1}, {0, -1}, {1, -1}, {2, -1}, {3, -1},
    {-3, 0},  {-2, 0},  {-1, 0},  {0, 0},  {1, 0},  {2, 0},  {3, 0},
    {-3, 1},  {-2, 1},  {-1, 1},  {0, 1},  {1, 1},  {2, 1},  {3, 1},
    {-2, 2},  {-1, 2},  {0, 2},  {1, 2},  {2, 2},
    {-1, 3},  {0, 3},  {1, 3},
}};

}  // namespace

std::uint64_t run_susan(TraceContext& ctx, int width, int height) {
  const auto w = static_cast<std::size_t>(width);
  const auto h = static_cast<std::size_t>(height);
  // Input and output images are separate page-aligned heap buffers, so
  // the per-pixel output store aliases the mask reads around the same
  // row in small caches; the LUT lives between them.
  TracedArray<std::uint8_t> img(ctx, w * h, page_alignment);
  TracedArray<std::uint8_t> lut(ctx, 516);
  TracedArray<std::uint8_t> out(ctx, w * h, page_alignment);

  // Synthetic scene: smooth gradient + blocks + deterministic noise.
  Lcg rng(0x5005a);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const std::uint32_t gradient = static_cast<std::uint32_t>(
          (x * 255) / w / 2 + (y * 255) / h / 2);
      const std::uint32_t block =
          ((x / 16 + y / 16) % 2 == 0) ? 40u : 0u;
      const std::uint32_t noise = rng.next(16);
      img.write(y * w + x,
                static_cast<std::uint8_t>(
                    std::min<std::uint32_t>(255, gradient + block + noise)));
    }
  }
  // Brightness-similarity LUT: 100 * exp(-((d/t)^6)), t = 27.
  for (int d = -258; d < 258; ++d) {
    const double ratio = static_cast<double>(d) / 27.0;
    const double similarity =
        100.0 * std::exp(-(ratio * ratio * ratio * ratio * ratio * ratio));
    lut.write(static_cast<std::size_t>(d + 258),
              static_cast<std::uint8_t>(similarity));
  }

  for (std::size_t y = 3; y + 3 < h; ++y) {
    for (std::size_t x = 3; x + 3 < w; ++x) {
      const int center = img.read(y * w + x);
      std::uint32_t area = 0;
      std::uint32_t total = 0;
      for (const auto& offset : susan_mask) {
        const std::size_t nx = x + static_cast<std::size_t>(offset[0]);
        const std::size_t ny = y + static_cast<std::size_t>(offset[1]);
        const int neighbor = img.read(ny * w + nx);
        const std::uint32_t weight =
            lut.read(static_cast<std::size_t>(neighbor - center + 258));
        area += weight;
        total += weight * static_cast<std::uint32_t>(neighbor);
      }
      // Subtract the center's own contribution, as real SUSAN does.
      const std::uint32_t wc = lut.read(258);
      area -= wc;
      total -= wc * static_cast<std::uint32_t>(center);
      out.write(y * w + x, area == 0
                               ? static_cast<std::uint8_t>(center)
                               : static_cast<std::uint8_t>(total / area));
    }
  }

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (std::size_t i = 0; i < w * h; ++i)
    checksum = fnv1a(checksum, out.peek(i));
  return checksum;
}

// ---------------------------------------------------------------------------
// rijndael: AES-128 with T-tables.
// ---------------------------------------------------------------------------

namespace aes {

constexpr std::array<std::uint8_t, 256> sbox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr std::uint32_t te0_entry(std::uint8_t x) {
  const std::uint8_t s = sbox[x];
  const std::uint8_t s2 = xtime(s);
  const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
  return (static_cast<std::uint32_t>(s2) << 24) |
         (static_cast<std::uint32_t>(s) << 16) |
         (static_cast<std::uint32_t>(s) << 8) | s3;
}

constexpr std::uint32_t ror8(std::uint32_t x) {
  return (x >> 8) | (x << 24);
}

constexpr std::array<std::uint8_t, 10> rcon = {0x01, 0x02, 0x04, 0x08, 0x10,
                                               0x20, 0x40, 0x80, 0x1b, 0x36};

void expand_key(const std::uint8_t key[16], std::uint32_t rk[44]) {
  for (int i = 0; i < 4; ++i)
    rk[i] = (static_cast<std::uint32_t>(key[4 * i]) << 24) |
            (static_cast<std::uint32_t>(key[4 * i + 1]) << 16) |
            (static_cast<std::uint32_t>(key[4 * i + 2]) << 8) |
            key[4 * i + 3];
  for (int i = 4; i < 44; ++i) {
    std::uint32_t temp = rk[i - 1];
    if (i % 4 == 0) {
      temp = (temp << 8) | (temp >> 24);  // RotWord
      temp = (static_cast<std::uint32_t>(sbox[(temp >> 24) & 0xff]) << 24) |
             (static_cast<std::uint32_t>(sbox[(temp >> 16) & 0xff]) << 16) |
             (static_cast<std::uint32_t>(sbox[(temp >> 8) & 0xff]) << 8) |
             sbox[temp & 0xff];
      temp ^= static_cast<std::uint32_t>(rcon[static_cast<std::size_t>(
                  i / 4 - 1)])
              << 24;
    }
    rk[i] = rk[i - 4] ^ temp;
  }
}

}  // namespace aes

void aes128_encrypt_block_reference(const std::uint8_t key[16],
                                    const std::uint8_t in[16],
                                    std::uint8_t out[16]) {
  std::uint32_t rk[44];
  aes::expand_key(key, rk);
  auto load = [&](int i) {
    return (static_cast<std::uint32_t>(in[4 * i]) << 24) |
           (static_cast<std::uint32_t>(in[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(in[4 * i + 2]) << 8) | in[4 * i + 3];
  };
  std::uint32_t s0 = load(0) ^ rk[0];
  std::uint32_t s1 = load(1) ^ rk[1];
  std::uint32_t s2 = load(2) ^ rk[2];
  std::uint32_t s3 = load(3) ^ rk[3];

  auto te = [](int table, std::uint8_t x) {
    std::uint32_t v = aes::te0_entry(x);
    for (int r = 0; r < table; ++r) v = aes::ror8(v);
    return v;
  };
  for (int round = 1; round < 10; ++round) {
    const std::uint32_t t0 = te(0, (s0 >> 24) & 0xff) ^
                             te(1, (s1 >> 16) & 0xff) ^
                             te(2, (s2 >> 8) & 0xff) ^ te(3, s3 & 0xff) ^
                             rk[4 * round];
    const std::uint32_t t1 = te(0, (s1 >> 24) & 0xff) ^
                             te(1, (s2 >> 16) & 0xff) ^
                             te(2, (s3 >> 8) & 0xff) ^ te(3, s0 & 0xff) ^
                             rk[4 * round + 1];
    const std::uint32_t t2 = te(0, (s2 >> 24) & 0xff) ^
                             te(1, (s3 >> 16) & 0xff) ^
                             te(2, (s0 >> 8) & 0xff) ^ te(3, s1 & 0xff) ^
                             rk[4 * round + 2];
    const std::uint32_t t3 = te(0, (s3 >> 24) & 0xff) ^
                             te(1, (s0 >> 16) & 0xff) ^
                             te(2, (s1 >> 8) & 0xff) ^ te(3, s2 & 0xff) ^
                             rk[4 * round + 3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  auto sub_word = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                     std::uint32_t d) {
    return (static_cast<std::uint32_t>(aes::sbox[a & 0xff]) << 24) |
           (static_cast<std::uint32_t>(aes::sbox[b & 0xff]) << 16) |
           (static_cast<std::uint32_t>(aes::sbox[c & 0xff]) << 8) |
           aes::sbox[d & 0xff];
  };
  const std::uint32_t r0 =
      sub_word(s0 >> 24, s1 >> 16, s2 >> 8, s3) ^ rk[40];
  const std::uint32_t r1 =
      sub_word(s1 >> 24, s2 >> 16, s3 >> 8, s0) ^ rk[41];
  const std::uint32_t r2 =
      sub_word(s2 >> 24, s3 >> 16, s0 >> 8, s1) ^ rk[42];
  const std::uint32_t r3 =
      sub_word(s3 >> 24, s0 >> 16, s1 >> 8, s2) ^ rk[43];
  const std::uint32_t words[4] = {r0, r1, r2, r3};
  for (int i = 0; i < 4; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(words[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(words[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(words[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(words[i]);
  }
}

std::uint64_t run_rijndael(TraceContext& ctx, int blocks) {
  const auto nblocks = static_cast<std::size_t>(blocks);
  // MiBench's rijndael encrypts a file in fixed-size chunks through
  // reused I/O buffers, so the data footprint is the T-tables plus two
  // small buffers. The buffers land (heap vs .rodata segments) at a
  // cache-size-periodic distance from the tables: at 16 KB everything
  // fits and all misses are table<->buffer conflicts (Table 2 shows
  // 100% of them removed); at 1 KB the 4 KB of tables alone thrash and
  // almost nothing is removable.
  constexpr std::size_t chunk_blocks = 64;  // 1 KB per chunk buffer

  // The four 1-KB T-tables plus the S-box, consecutive as in .rodata.
  TracedArray<std::uint32_t> te0(ctx, 256);
  TracedArray<std::uint32_t> te1(ctx, 256);
  TracedArray<std::uint32_t> te2(ctx, 256);
  TracedArray<std::uint32_t> te3(ctx, 256);
  TracedArray<std::uint8_t> sbox_mem(ctx, 256);
  TracedArray<std::uint32_t> round_keys(ctx, 44);
  ctx.space.place_at(te0.base_address() + 16384);
  TracedArray<std::uint8_t> input(ctx, chunk_blocks * 16);
  TracedArray<std::uint8_t> output(ctx, chunk_blocks * 16);

  for (std::size_t i = 0; i < 256; ++i) {
    const std::uint32_t t = aes::te0_entry(static_cast<std::uint8_t>(i));
    te0.write(i, t);
    te1.write(i, aes::ror8(t));
    te2.write(i, aes::ror8(aes::ror8(t)));
    te3.write(i, aes::ror8(aes::ror8(aes::ror8(t))));
    sbox_mem.write(i, aes::sbox[i]);
  }

  const std::uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                0x09, 0xcf, 0x4f, 0x3c};
  std::uint32_t rk[44];
  aes::expand_key(key, rk);
  for (std::size_t i = 0; i < 44; ++i) round_keys.write(i, rk[i]);

  Lcg rng(0xae5u);
  std::uint64_t checksum = io::fnv1a_short_basis;
  for (std::size_t done = 0; done < nblocks; done += chunk_blocks) {
    const std::size_t batch = std::min(chunk_blocks, nblocks - done);
    // "Read" the next file chunk into the reused input buffer.
    for (std::size_t i = 0; i < batch * 16; ++i)
      input.write(i, static_cast<std::uint8_t>(rng.next(256)));

    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t base = 16 * b;
      auto load_word = [&](std::size_t i) {
        return (static_cast<std::uint32_t>(input.read(base + 4 * i)) << 24) |
               (static_cast<std::uint32_t>(input.read(base + 4 * i + 1))
                << 16) |
               (static_cast<std::uint32_t>(input.read(base + 4 * i + 2)) << 8) |
               input.read(base + 4 * i + 3);
      };
      std::uint32_t s0 = load_word(0) ^ round_keys.read(0);
      std::uint32_t s1 = load_word(1) ^ round_keys.read(1);
      std::uint32_t s2 = load_word(2) ^ round_keys.read(2);
      std::uint32_t s3 = load_word(3) ^ round_keys.read(3);
      for (int round = 1; round < 10; ++round) {
        const std::uint32_t t0 =
            te0.read((s0 >> 24) & 0xff) ^ te1.read((s1 >> 16) & 0xff) ^
            te2.read((s2 >> 8) & 0xff) ^ te3.read(s3 & 0xff) ^
            round_keys.read(static_cast<std::size_t>(4 * round));
        const std::uint32_t t1 =
            te0.read((s1 >> 24) & 0xff) ^ te1.read((s2 >> 16) & 0xff) ^
            te2.read((s3 >> 8) & 0xff) ^ te3.read(s0 & 0xff) ^
            round_keys.read(static_cast<std::size_t>(4 * round + 1));
        const std::uint32_t t2 =
            te0.read((s2 >> 24) & 0xff) ^ te1.read((s3 >> 16) & 0xff) ^
            te2.read((s0 >> 8) & 0xff) ^ te3.read(s1 & 0xff) ^
            round_keys.read(static_cast<std::size_t>(4 * round + 2));
        const std::uint32_t t3 =
            te0.read((s3 >> 24) & 0xff) ^ te1.read((s0 >> 16) & 0xff) ^
            te2.read((s1 >> 8) & 0xff) ^ te3.read(s2 & 0xff) ^
            round_keys.read(static_cast<std::size_t>(4 * round + 3));
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
      }
      auto final_word = [&](std::uint32_t a, std::uint32_t b2, std::uint32_t c,
                            std::uint32_t d, std::size_t rk_i) {
        return ((static_cast<std::uint32_t>(sbox_mem.read((a >> 24) & 0xff))
                 << 24) |
                (static_cast<std::uint32_t>(sbox_mem.read((b2 >> 16) & 0xff))
                 << 16) |
                (static_cast<std::uint32_t>(sbox_mem.read((c >> 8) & 0xff))
                 << 8) |
                sbox_mem.read(d & 0xff)) ^
               round_keys.read(rk_i);
      };
      const std::uint32_t words[4] = {
          final_word(s0, s1, s2, s3, 40), final_word(s1, s2, s3, s0, 41),
          final_word(s2, s3, s0, s1, 42), final_word(s3, s0, s1, s2, 43)};
      for (std::size_t i = 0; i < 4; ++i) {
        output.write(base + 4 * i,
                     static_cast<std::uint8_t>(words[i] >> 24));
        output.write(base + 4 * i + 1,
                     static_cast<std::uint8_t>(words[i] >> 16));
        output.write(base + 4 * i + 2,
                     static_cast<std::uint8_t>(words[i] >> 8));
        output.write(base + 4 * i + 3, static_cast<std::uint8_t>(words[i]));
      }
    }
    // "Write" the chunk out: fold it into the running checksum.
    for (std::size_t i = 0; i < batch * 16; ++i)
      checksum = fnv1a(checksum, output.peek(i));
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// adpcm: IMA ADPCM codec.
// ---------------------------------------------------------------------------

namespace adpcm {

constexpr std::array<std::int32_t, 16> index_table = {
    -1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8};

constexpr std::array<std::int32_t, 89> step_table = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,
    19,    21,    23,    25,    28,    31,    34,    37,    41,    45,
    50,    55,    60,    66,    73,    80,    88,    97,    107,   118,
    130,   143,   157,   173,   190,   209,   230,   253,   279,   307,
    337,   371,   408,   449,   494,   544,   598,   658,   724,   796,
    876,   963,   1060,  1166,  1282,  1411,  1552,  1707,  1878,  2066,
    2272,  2499,  2749,  3024,  3327,  3660,  4026,  4428,  4871,  5358,
    5894,  6484,  7132,  7845,  8630,  9493,  10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

/// Deterministic integer multi-tone test signal.
std::int16_t signal(int i) {
  const int tri = std::abs((i % 128) - 64) * 180 - 5760;  // triangle wave
  const int saw = (i % 37) * 160 - 2960;                  // sawtooth
  const int pulse = (i % 251) < 20 ? 1500 : 0;
  return static_cast<std::int16_t>(tri + saw + pulse);
}

/// Encode one sample against (*predictor, *index) state, returning the
/// 4-bit code and updating state exactly as the decoder will.
std::uint8_t encode_sample(std::int32_t sample, std::int32_t* predictor,
                           std::int32_t* index, std::int32_t step) {
  std::int32_t diff = sample - *predictor;
  std::uint8_t code = 0;
  if (diff < 0) {
    code = 8;
    diff = -diff;
  }
  std::int32_t temp_step = step;
  if (diff >= temp_step) {
    code |= 4;
    diff -= temp_step;
  }
  temp_step >>= 1;
  if (diff >= temp_step) {
    code |= 2;
    diff -= temp_step;
  }
  temp_step >>= 1;
  if (diff >= temp_step) code |= 1;

  std::int32_t vpdiff = step >> 3;
  if (code & 4) vpdiff += step;
  if (code & 2) vpdiff += step >> 1;
  if (code & 1) vpdiff += step >> 2;
  if (code & 8)
    *predictor -= vpdiff;
  else
    *predictor += vpdiff;
  *predictor = std::clamp(*predictor, -32768, 32767);
  *index = std::clamp(*index + index_table[code], 0, 88);
  return code;
}

/// Decode one 4-bit code against (*predictor, *index) state.
std::int16_t decode_sample(std::uint8_t code, std::int32_t* predictor,
                           std::int32_t* index, std::int32_t step) {
  std::int32_t vpdiff = step >> 3;
  if (code & 4) vpdiff += step;
  if (code & 2) vpdiff += step >> 1;
  if (code & 1) vpdiff += step >> 2;
  if (code & 8)
    *predictor -= vpdiff;
  else
    *predictor += vpdiff;
  *predictor = std::clamp(*predictor, -32768, 32767);
  *index = std::clamp(*index + index_table[code], 0, 88);
  return static_cast<std::int16_t>(*predictor);
}

/// Untraced encode of the standard test signal (input to the decoder
/// workload).
std::vector<std::uint8_t> encode_reference(int samples) {
  std::vector<std::uint8_t> codes;
  codes.reserve(static_cast<std::size_t>(samples));
  std::int32_t predictor = 0;
  std::int32_t index = 0;
  for (int i = 0; i < samples; ++i) {
    const std::int32_t step = step_table[static_cast<std::size_t>(index)];
    codes.push_back(encode_sample(signal(i), &predictor, &index, step));
  }
  return codes;
}

}  // namespace adpcm

std::uint64_t run_adpcm_enc(TraceContext& ctx, int samples) {
  // MiBench's rawcaudio codes its input in fixed chunks through reused
  // buffers: the data footprint is the step tables plus a 1-KB PCM chunk
  // and its code output. The chunk buffers land one page group past the
  // tables, so tables and buffers alias in 1 and 4 KB caches (removable
  // conflicts), while a 16 KB cache holds everything without conflicts.
  constexpr std::size_t chunk_samples = 512;
  const auto count = static_cast<std::size_t>(samples);

  TracedArray<std::int32_t> steps(ctx, adpcm::step_table.size());
  TracedArray<std::int32_t> indices(ctx, adpcm::index_table.size());
  ctx.space.place_at(steps.base_address() + 4096);
  TracedArray<std::int16_t> pcm(ctx, chunk_samples);
  TracedArray<std::uint8_t> codes(ctx, chunk_samples / 2);

  for (std::size_t i = 0; i < adpcm::step_table.size(); ++i)
    steps.write(i, adpcm::step_table[i]);
  for (std::size_t i = 0; i < adpcm::index_table.size(); ++i)
    indices.write(i, adpcm::index_table[i]);

  std::uint64_t checksum = io::fnv1a_short_basis;
  std::int32_t predictor = 0;
  std::int32_t index = 0;
  for (std::size_t done = 0; done < count; done += chunk_samples) {
    const std::size_t batch = std::min(chunk_samples, count - done);
    // "Read" the next chunk of the input signal.
    for (std::size_t i = 0; i < batch; ++i)
      pcm.write(i, adpcm::signal(static_cast<int>(done + i)));

    std::uint8_t pending = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      const std::int32_t sample = pcm.read(i);
      const std::int32_t step = steps.read(static_cast<std::size_t>(index));
      std::int32_t diff = sample - predictor;
      std::uint8_t code = 0;
      if (diff < 0) {
        code = 8;
        diff = -diff;
      }
      std::int32_t temp_step = step;
      if (diff >= temp_step) {
        code |= 4;
        diff -= temp_step;
      }
      temp_step >>= 1;
      if (diff >= temp_step) {
        code |= 2;
        diff -= temp_step;
      }
      temp_step >>= 1;
      if (diff >= temp_step) code |= 1;

      std::int32_t vpdiff = step >> 3;
      if (code & 4) vpdiff += step;
      if (code & 2) vpdiff += step >> 1;
      if (code & 1) vpdiff += step >> 2;
      predictor = std::clamp(
          code & 8 ? predictor - vpdiff : predictor + vpdiff, -32768, 32767);
      index = std::clamp(
          index + indices.read(static_cast<std::size_t>(code)), 0, 88);

      if (i % 2 == 0) {
        pending = code;
      } else {
        codes.write(i / 2, static_cast<std::uint8_t>(pending | (code << 4)));
      }
    }
    if (batch % 2 != 0) codes.write(batch / 2, pending);
    // "Write" the coded chunk out.
    for (std::size_t i = 0; i < (batch + 1) / 2; ++i)
      checksum = fnv1a(checksum, codes.peek(i));
  }
  return checksum;
}

std::uint64_t run_adpcm_dec(TraceContext& ctx, int samples) {
  // Chunked like the encoder: a reused code-input buffer and a reused
  // PCM output buffer, placed one page group past the tables.
  constexpr std::size_t chunk_samples = 512;
  const std::vector<std::uint8_t> packed_codes = [&] {
    const std::vector<std::uint8_t> raw = adpcm::encode_reference(samples);
    std::vector<std::uint8_t> packed((raw.size() + 1) / 2, 0);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (i % 2 == 0)
        packed[i / 2] = raw[i];
      else
        packed[i / 2] = static_cast<std::uint8_t>(packed[i / 2] |
                                                  (raw[i] << 4));
    }
    return packed;
  }();

  const auto count = static_cast<std::size_t>(samples);
  TracedArray<std::int32_t> steps(ctx, adpcm::step_table.size());
  TracedArray<std::int32_t> indices(ctx, adpcm::index_table.size());
  ctx.space.place_at(steps.base_address() + 4096);
  TracedArray<std::uint8_t> codes(ctx, chunk_samples / 2);
  TracedArray<std::int16_t> pcm(ctx, chunk_samples);

  for (std::size_t i = 0; i < adpcm::step_table.size(); ++i)
    steps.write(i, adpcm::step_table[i]);
  for (std::size_t i = 0; i < adpcm::index_table.size(); ++i)
    indices.write(i, adpcm::index_table[i]);

  std::uint64_t checksum = io::fnv1a_short_basis;
  std::int32_t predictor = 0;
  std::int32_t index = 0;
  for (std::size_t done = 0; done < count; done += chunk_samples) {
    const std::size_t batch = std::min(chunk_samples, count - done);
    // "Read" the next chunk of the code stream.
    for (std::size_t i = 0; i < (batch + 1) / 2; ++i)
      codes.write(i, packed_codes[(done / 2) + i]);

    for (std::size_t i = 0; i < batch; ++i) {
      const std::uint8_t pair = codes.read(i / 2);
      const std::uint8_t code = i % 2 == 0 ? (pair & 0xf) : (pair >> 4);
      const std::int32_t step = steps.read(static_cast<std::size_t>(index));
      std::int32_t vpdiff = step >> 3;
      if (code & 4) vpdiff += step;
      if (code & 2) vpdiff += step >> 1;
      if (code & 1) vpdiff += step >> 2;
      predictor = std::clamp(
          code & 8 ? predictor - vpdiff : predictor + vpdiff, -32768, 32767);
      index = std::clamp(
          index + indices.read(static_cast<std::size_t>(code)), 0, 88);
      pcm.write(i, static_cast<std::int16_t>(predictor));
    }
    // "Write" the decoded chunk out.
    for (std::size_t i = 0; i < batch; ++i)
      checksum = fnv1a_word(checksum,
                            static_cast<std::uint64_t>(
                                static_cast<std::uint16_t>(pcm.peek(i))));
  }
  return checksum;
}

}  // namespace xoridx::workloads
