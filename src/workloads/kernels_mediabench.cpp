#include "workloads/kernels_mediabench.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

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

// ---------------------------------------------------------------------------
// Shared 8x8 DCT machinery (fixed point, 14 fractional bits).
// ---------------------------------------------------------------------------

/// Orthonormal 1-D DCT-II basis, T[u][x] = alpha(u)/2 * cos((2x+1)u*pi/16),
/// scaled by 2^14. The inverse transform is the transpose.
std::array<std::int32_t, 64> make_dct_table() {
  std::array<std::int32_t, 64> t{};
  for (int u = 0; u < 8; ++u) {
    const double alpha = u == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
    for (int x = 0; x < 8; ++x) {
      const double value =
          0.5 * alpha *
          std::cos((2.0 * x + 1.0) * u * 3.14159265358979323846 / 16.0);
      t[static_cast<std::size_t>(u * 8 + x)] =
          static_cast<std::int32_t>(std::lround(value * 16384.0));
    }
  }
  return t;
}

/// Standard JPEG luminance quantization matrix (Annex K).
constexpr std::array<std::int32_t, 64> quant_matrix = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

/// Zigzag scan order: zigzag[k] is the raster index of scan position k.
constexpr std::array<std::int32_t, 64> zigzag_order = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

constexpr std::uint8_t eob_marker = 255;

/// Deterministic synthetic photo: gradients, disks and texture noise.
std::uint8_t scene_pixel(int x, int y, int width, int height) {
  Lcg noise(static_cast<std::uint32_t>(x * 7919 + y * 104729 + 17));
  const int gradient = (x * 96) / width + (y * 64) / height;
  const int dx = x - width / 3;
  const int dy = y - height / 3;
  const int disk = dx * dx + dy * dy < (width / 4) * (width / 4) ? 70 : 0;
  const int texture = static_cast<int>(noise.next(24));
  return static_cast<std::uint8_t>(
      std::clamp(40 + gradient + disk + texture, 0, 255));
}

/// Encode one 8-row strip of the image (already loaded into `strip`,
/// width x 8 pixels) over any array family (TracedArray for workload
/// builds, PlainArray for reference streams). Bytes go through `emit`,
/// which owns output chunking.
template <typename Arr8, typename Arr32, typename Emit>
void jpeg_encode_strip(const Arr8& strip, Arr32& dct, Arr32& quant,
                       Arr32& zigzag, Arr32& workspace, Emit&& emit,
                       int width) {
  for (int bx = 0; bx < width; bx += 8) {
    // Load one 8x8 block, level-shifted.
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x)
        workspace.write(
            static_cast<std::size_t>(y * 8 + x),
            static_cast<std::int32_t>(strip.read(
                static_cast<std::size_t>(y * width + (bx + x)))) -
                128);
    // Row pass: rows <- T * row.
    for (int y = 0; y < 8; ++y) {
      std::int32_t row[8];
      for (int u = 0; u < 8; ++u) {
        std::int64_t acc = 0;
        for (int x = 0; x < 8; ++x)
          acc += static_cast<std::int64_t>(
                     workspace.read(static_cast<std::size_t>(y * 8 + x))) *
                 dct.read(static_cast<std::size_t>(u * 8 + x));
        row[u] = static_cast<std::int32_t>((acc + 8192) >> 14);
      }
      for (int u = 0; u < 8; ++u)
        workspace.write(static_cast<std::size_t>(y * 8 + u), row[u]);
    }
    // Column pass.
    for (int x = 0; x < 8; ++x) {
      std::int32_t col[8];
      for (int u = 0; u < 8; ++u) {
        std::int64_t acc = 0;
        for (int y = 0; y < 8; ++y)
          acc += static_cast<std::int64_t>(
                     workspace.read(static_cast<std::size_t>(y * 8 + x))) *
                 dct.read(static_cast<std::size_t>(u * 8 + y));
        col[u] = static_cast<std::int32_t>((acc + 8192) >> 14);
      }
      for (int u = 0; u < 8; ++u)
        workspace.write(static_cast<std::size_t>(u * 8 + x), col[u]);
    }
    // Quantize in place.
    for (int i = 0; i < 64; ++i) {
      const std::int32_t q = quant.read(static_cast<std::size_t>(i));
      const std::int32_t c = workspace.read(static_cast<std::size_t>(i));
      const std::int32_t rounded =
          c >= 0 ? (c + q / 2) / q : -((-c + q / 2) / q);
      workspace.write(static_cast<std::size_t>(i), rounded);
    }
    // DC as two bytes, then zigzag AC run-length pairs.
    const std::int32_t dc = workspace.read(0);
    emit(static_cast<std::int8_t>(dc & 0xff));
    emit(static_cast<std::int8_t>((dc >> 8) & 0xff));
    int run = 0;
    for (int k = 1; k < 64; ++k) {
      const std::size_t raster = static_cast<std::size_t>(
          zigzag.read(static_cast<std::size_t>(k)));
      const std::int32_t coeff = workspace.read(raster);
      if (coeff == 0) {
        ++run;
        continue;
      }
      emit(static_cast<std::int8_t>(run));
      emit(static_cast<std::int8_t>(std::clamp(coeff, -127, 127)));
      run = 0;
    }
    emit(static_cast<std::int8_t>(eob_marker));  // end of block
  }
}

/// Decode one 8-row strip into `strip`; `fetch()` yields stream bytes and
/// owns input chunking.
template <typename Arr8, typename Arr32, typename Fetch>
void jpeg_decode_strip(Fetch&& fetch, Arr32& dct, Arr32& quant, Arr32& zigzag,
                       Arr32& workspace, Arr8& strip, int width) {
  for (int bx = 0; bx < width; bx += 8) {
    for (int i = 0; i < 64; ++i)
      workspace.write(static_cast<std::size_t>(i), 0);
    const std::uint8_t dc_lo = static_cast<std::uint8_t>(fetch());
    const std::uint8_t dc_hi = static_cast<std::uint8_t>(fetch());
    workspace.write(0, static_cast<std::int16_t>(
                           dc_lo | (static_cast<std::uint16_t>(dc_hi) << 8)));
    int k = 1;
    for (;;) {
      const std::uint8_t run = static_cast<std::uint8_t>(fetch());
      if (run == eob_marker) break;
      const std::int8_t value = fetch();
      k += run;
      const std::size_t raster = static_cast<std::size_t>(
          zigzag.read(static_cast<std::size_t>(k)));
      workspace.write(raster, value);
      ++k;
    }
    // Dequantize.
    for (int i = 0; i < 64; ++i)
      workspace.write(static_cast<std::size_t>(i),
                      workspace.read(static_cast<std::size_t>(i)) *
                          quant.read(static_cast<std::size_t>(i)));
    // Inverse column pass: f = T^T * F.
    for (int x = 0; x < 8; ++x) {
      std::int32_t col[8];
      for (int y = 0; y < 8; ++y) {
        std::int64_t acc = 0;
        for (int u = 0; u < 8; ++u)
          acc += static_cast<std::int64_t>(
                     workspace.read(static_cast<std::size_t>(u * 8 + x))) *
                 dct.read(static_cast<std::size_t>(u * 8 + y));
        col[y] = static_cast<std::int32_t>((acc + 8192) >> 14);
      }
      for (int y = 0; y < 8; ++y)
        workspace.write(static_cast<std::size_t>(y * 8 + x), col[y]);
    }
    // Inverse row pass.
    for (int y = 0; y < 8; ++y) {
      std::int32_t row[8];
      for (int x = 0; x < 8; ++x) {
        std::int64_t acc = 0;
        for (int u = 0; u < 8; ++u)
          acc += static_cast<std::int64_t>(
                     workspace.read(static_cast<std::size_t>(y * 8 + u))) *
                 dct.read(static_cast<std::size_t>(u * 8 + x));
        row[x] = static_cast<std::int32_t>((acc + 8192) >> 14);
      }
      for (int x = 0; x < 8; ++x)
        strip.write(static_cast<std::size_t>(y * width + (bx + x)),
                    static_cast<std::uint8_t>(std::clamp(row[x] + 128, 0, 255)));
    }
  }
}

struct JpegPlainTables {
  PlainArray<std::int32_t> dct;
  PlainArray<std::int32_t> quant;
  PlainArray<std::int32_t> zigzag;
  PlainArray<std::int32_t> workspace{64};

  JpegPlainTables()
      : dct([] {
          const std::array<std::int32_t, 64> v = make_dct_table();
          return PlainArray<std::int32_t>(
              std::vector<std::int32_t>(v.begin(), v.end()));
        }()),
        quant(std::vector<std::int32_t>(quant_matrix.begin(),
                                        quant_matrix.end())),
        zigzag(std::vector<std::int32_t>(zigzag_order.begin(),
                                         zigzag_order.end())) {}
};

/// Reference (untraced) encode of the standard scene.
std::vector<std::int8_t> jpeg_reference_stream(int width, int height,
                                               std::size_t* bytes_out) {
  JpegPlainTables t;
  PlainArray<std::uint8_t> strip(static_cast<std::size_t>(width) * 8);
  std::vector<std::int8_t> out;
  for (int by = 0; by < height; by += 8) {
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < width; ++x)
        strip.write(static_cast<std::size_t>(y * width + x),
                    scene_pixel(x, by + y, width, height));
    jpeg_encode_strip(strip, t.dct, t.quant, t.zigzag, t.workspace,
                      [&out](std::int8_t b) { out.push_back(b); }, width);
  }
  if (bytes_out != nullptr) *bytes_out = out.size();
  return out;
}

}  // namespace

std::uint64_t run_jpeg_enc(TraceContext& ctx, int width, int height) {
  // cjpeg-style memory behaviour: the scanline strip and the entropy
  // output chunk are reused page-aligned buffers, while the DCT/quant/
  // zigzag tables and the block workspace pack together like globals.
  const std::array<std::int32_t, 64> dct_values = make_dct_table();
  TracedArray<std::int32_t> dct(
      ctx, std::vector<std::int32_t>(dct_values.begin(), dct_values.end()));
  TracedArray<std::int32_t> quant(
      ctx,
      std::vector<std::int32_t>(quant_matrix.begin(), quant_matrix.end()));
  TracedArray<std::int32_t> zigzag(
      ctx,
      std::vector<std::int32_t>(zigzag_order.begin(), zigzag_order.end()));
  TracedArray<std::int32_t> workspace(ctx, 64);
  TracedArray<std::uint8_t> strip(ctx, static_cast<std::size_t>(width) * 8,
                                  page_alignment);
  TracedArray<std::int8_t> stream(ctx, 1024, page_alignment);

  std::uint64_t checksum = io::fnv1a_short_basis;
  std::size_t out = 0;
  auto flush = [&] {
    for (std::size_t i = 0; i < out; ++i)
      checksum = fnv1a(checksum, static_cast<std::uint8_t>(stream.peek(i)));
    out = 0;
  };
  auto emit = [&](std::int8_t b) {
    stream.write(out++, b);
    if (out == stream.size()) flush();
  };

  for (int by = 0; by < height; by += 8) {
    // "Read" the next 8 scanlines into the strip buffer.
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < width; ++x)
        strip.write(static_cast<std::size_t>(y * width + x),
                    scene_pixel(x, by + y, width, height));
    jpeg_encode_strip(strip, dct, quant, zigzag, workspace, emit, width);
  }
  flush();
  return checksum;
}

std::uint64_t run_jpeg_dec(TraceContext& ctx, int width, int height) {
  std::size_t bytes = 0;
  const std::vector<std::int8_t> reference =
      jpeg_reference_stream(width, height, &bytes);

  // djpeg-style memory behaviour: chunked stream input and a reused
  // output scanline strip.
  const std::array<std::int32_t, 64> dct_values = make_dct_table();
  TracedArray<std::int32_t> dct(
      ctx, std::vector<std::int32_t>(dct_values.begin(), dct_values.end()));
  TracedArray<std::int32_t> quant(
      ctx,
      std::vector<std::int32_t>(quant_matrix.begin(), quant_matrix.end()));
  TracedArray<std::int32_t> zigzag(
      ctx,
      std::vector<std::int32_t>(zigzag_order.begin(), zigzag_order.end()));
  TracedArray<std::int32_t> workspace(ctx, 64);
  TracedArray<std::int8_t> stream(ctx, 1024, page_alignment);
  TracedArray<std::uint8_t> strip(ctx, static_cast<std::size_t>(width) * 8,
                                  page_alignment);

  std::size_t in = 0;        // global position in the reference stream
  std::size_t window = 0;    // bytes currently buffered
  auto fetch = [&]() {
    const std::size_t offset = in % stream.size();
    if (in == window) {
      // Refill the chunk buffer ("read" from the compressed file).
      const std::size_t fill =
          std::min(stream.size(), reference.size() - window);
      for (std::size_t i = 0; i < fill; ++i)
        stream.write(i, reference[window + i]);
      window += fill;
    }
    ++in;
    return stream.read(offset);
  };

  std::uint64_t checksum = io::fnv1a_short_basis;
  for (int by = 0; by < height; by += 8) {
    jpeg_decode_strip(fetch, dct, quant, zigzag, workspace, strip, width);
    // "Write" the decoded strip out.
    for (std::size_t i = 0; i < strip.size(); ++i)
      checksum = fnv1a(checksum, strip.peek(i));
  }
  return checksum;
}

std::uint64_t jpeg_stream_bytes(int width, int height) {
  std::size_t bytes = 0;
  jpeg_reference_stream(width, height, &bytes);
  return bytes;
}

double jpeg_roundtrip_mae(int width, int height) {
  const std::vector<std::int8_t> reference =
      jpeg_reference_stream(width, height, nullptr);
  JpegPlainTables t;
  PlainArray<std::uint8_t> strip(static_cast<std::size_t>(width) * 8);
  std::size_t in = 0;
  auto fetch = [&]() { return reference[in++]; };

  double total_error = 0.0;
  for (int by = 0; by < height; by += 8) {
    jpeg_decode_strip(fetch, t.dct, t.quant, t.zigzag, t.workspace, strip,
                      width);
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < width; ++x)
        total_error += std::abs(
            static_cast<double>(
                strip.peek(static_cast<std::size_t>(y * width + x))) -
            scene_pixel(x, by + y, width, height));
  }
  return total_error /
         (static_cast<double>(width) * static_cast<double>(height));
}

// ---------------------------------------------------------------------------
// lame: 512-tap windowed polyphase filterbank into 32 subbands.
// ---------------------------------------------------------------------------

std::uint64_t run_lame(TraceContext& ctx, int granules) {
  constexpr std::size_t window_size = 512;
  constexpr std::size_t subbands = 32;
  // Heap layout: each filterbank array is its own page-aligned
  // allocation, so ring/window/z — read together element-by-element in
  // the windowing loop — alias in small direct-mapped caches.
  TracedArray<float> ring(ctx, window_size, page_alignment);
  TracedArray<float> window(ctx, window_size, page_alignment);
  TracedArray<float> z(ctx, window_size, page_alignment);
  TracedArray<float> y(ctx, 64);                 // partial sums
  TracedArray<float> cosmat(ctx, subbands * 64, page_alignment);  // 8 KB
  // Per-granule subband output, handed to the (modelled) bitstream
  // encoder and reused — the working set stays bounded like real lame's.
  TracedArray<float> out(ctx, subbands, page_alignment);

  // Deterministic analysis window (sine window shape) and cosine matrix
  // M[s][k] = cos((2s+1)(k-16)pi/64).
  for (std::size_t i = 0; i < window_size; ++i) {
    const double u = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(window_size);
    window.write(i, static_cast<float>(
                        std::sin(3.14159265358979323846 * u) / 64.0));
  }
  for (std::size_t s = 0; s < subbands; ++s)
    for (std::size_t k = 0; k < 64; ++k)
      cosmat.write(s * 64 + k,
                   static_cast<float>(std::cos(
                       (2.0 * static_cast<double>(s) + 1.0) *
                       (static_cast<double>(k) - 16.0) *
                       3.14159265358979323846 / 64.0)));
  for (std::size_t i = 0; i < window_size; ++i) ring.write(i, 0.0f);

  Lcg rng(0x1a3eu);
  std::size_t ring_pos = 0;
  std::uint64_t checksum = io::fnv1a_short_basis;
  for (int g = 0; g < granules; ++g) {
    // Shift in 32 fresh samples (multi-tone + dither).
    for (int i = 0; i < 32; ++i) {
      const int t = g * 32 + i;
      const float tone1 = (t / 16) % 2 == 0 ? 0.6f : -0.6f;
      const float tone2 = (t / 90) % 2 == 0 ? 0.3f : -0.3f;
      const float dither = static_cast<float>(rng.next(1000)) * 1e-4f;
      ring.write(ring_pos, tone1 + tone2 + dither);
      ring_pos = (ring_pos + 1) % window_size;
    }
    // Window the last 512 samples.
    for (std::size_t i = 0; i < window_size; ++i) {
      const std::size_t src = (ring_pos + i) % window_size;
      z.write(i, ring.read(src) * window.read(i));
    }
    // Partial sums y[k] = sum_j z[k + 64 j].
    for (std::size_t k = 0; k < 64; ++k) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < 8; ++j) acc += z.read(k + 64 * j);
      y.write(k, acc);
    }
    // Matrix into 32 subbands.
    for (std::size_t s = 0; s < subbands; ++s) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < 64; ++k)
        acc += cosmat.read(s * 64 + k) * y.read(k);
      out.write(s, acc);
    }
    // Hand the granule to the bitstream stage (modelled as a checksum).
    double energy = 0.0;
    for (std::size_t s = 0; s < subbands; ++s) {
      const double v = out.peek(s);
      energy += v * v;
    }
    checksum = fnv1a_word(
        checksum, static_cast<std::uint64_t>(std::llround(energy * 1024.0)));
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// mpeg2 decode: IDCT + motion compensation.
// ---------------------------------------------------------------------------

std::uint64_t run_mpeg2_dec(TraceContext& ctx, int width, int height,
                            int frames) {
  const auto pixels =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  // The two frame stores are separate page-aligned allocations: motion
  // compensation reads the reference at nearly the same row offsets it
  // writes in the current frame, so the frames alias in small caches.
  TracedArray<std::uint8_t> ref_frame(ctx, pixels, page_alignment);
  TracedArray<std::uint8_t> cur_frame(ctx, pixels, page_alignment);
  const std::array<std::int32_t, 64> dct_values = make_dct_table();
  TracedArray<std::int32_t> dct(
      ctx, std::vector<std::int32_t>(dct_values.begin(), dct_values.end()));
  TracedArray<std::int32_t> coeffs(ctx, 64);  // coefficient staging block
  TracedArray<std::int32_t> residual(ctx, 64);

  // Initial reference frame: deterministic scene.
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x)
      ref_frame.write(static_cast<std::size_t>(y * width + x),
                      scene_pixel(x, y, width, height));

  Lcg rng(0x3e62u);
  std::uint64_t checksum = io::fnv1a_short_basis;
  for (int f = 0; f < frames; ++f) {
    for (int mby = 0; mby < height; mby += 16) {
      for (int mbx = 0; mbx < width; mbx += 16) {
        // Motion vector within +/-7, clamped to the frame.
        const int mvx = std::clamp(static_cast<int>(rng.next(15)) - 7, -mbx,
                                   width - 16 - mbx);
        const int mvy = std::clamp(static_cast<int>(rng.next(15)) - 7, -mby,
                                   height - 16 - mby);
        // Four 8x8 residual blocks per macroblock.
        for (int sub = 0; sub < 4; ++sub) {
          const int bx = mbx + (sub % 2) * 8;
          const int by = mby + (sub / 2) * 8;
          // Sparse synthetic coefficients (low-frequency energy).
          for (int i = 0; i < 64; ++i) coeffs.write(static_cast<std::size_t>(i), 0);
          const int nonzero = 3 + static_cast<int>(rng.next(5));
          for (int i = 0; i < nonzero; ++i) {
            const std::size_t pos = rng.next(16);  // low-frequency region
            coeffs.write(pos, static_cast<std::int32_t>(rng.next(65)) - 32);
          }
          // 2-D IDCT: residual = T^T * coeffs * T (two fixed-point passes).
          for (int x = 0; x < 8; ++x) {
            std::int32_t col[8];
            for (int yy = 0; yy < 8; ++yy) {
              std::int64_t acc = 0;
              for (int u = 0; u < 8; ++u)
                acc += static_cast<std::int64_t>(coeffs.read(
                           static_cast<std::size_t>(u * 8 + x))) *
                       dct.read(static_cast<std::size_t>(u * 8 + yy));
              col[yy] = static_cast<std::int32_t>((acc + 8192) >> 14);
            }
            for (int yy = 0; yy < 8; ++yy)
              residual.write(static_cast<std::size_t>(yy * 8 + x), col[yy]);
          }
          for (int yy = 0; yy < 8; ++yy) {
            std::int32_t row[8];
            for (int x = 0; x < 8; ++x) {
              std::int64_t acc = 0;
              for (int u = 0; u < 8; ++u)
                acc += static_cast<std::int64_t>(residual.read(
                           static_cast<std::size_t>(yy * 8 + u))) *
                       dct.read(static_cast<std::size_t>(u * 8 + x));
              row[x] = static_cast<std::int32_t>((acc + 8192) >> 14);
            }
            // Motion compensation + residual add.
            for (int x = 0; x < 8; ++x) {
              const std::size_t src = static_cast<std::size_t>(
                  (by + yy + mvy) * width + (bx + x + mvx));
              const int predicted = ref_frame.read(src);
              cur_frame.write(
                  static_cast<std::size_t>((by + yy) * width + (bx + x)),
                  static_cast<std::uint8_t>(
                      std::clamp(predicted + row[x], 0, 255)));
            }
          }
        }
      }
    }
    // The decoded frame becomes the next reference.
    for (std::size_t i = 0; i < pixels; ++i)
      ref_frame.write(i, cur_frame.read(i));
  }

  for (std::size_t i = 0; i < pixels; ++i)
    checksum = fnv1a(checksum, cur_frame.peek(i));
  return checksum;
}

}  // namespace xoridx::workloads
