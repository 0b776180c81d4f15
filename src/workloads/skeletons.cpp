#include "workloads/skeletons.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace xoridx::workloads {

namespace {

constexpr std::uint64_t code_base = 0x100000;

// Collision distances: a helper placed S bytes after a hot function
// occupies the same sets in every direct-mapped cache of size dividing S
// (4-byte blocks). 1024 -> collides at 1 KB only; 4096 -> 1 and 4 KB;
// 16384 -> all three evaluated sizes.
constexpr std::uint64_t collide_1k = 1024;
constexpr std::uint64_t collide_4k = 4096;
constexpr std::uint64_t collide_16k = 16384;

InstructionSynthesizer dijkstra_skeleton() {
  InstructionSynthesizer s(code_base);
  const int main_fn = s.add_function("main", 40);
  const int init = s.add_function("init_graph", 14);
  const int scan = s.add_function("scan_min", 8);
  const int relax = s.add_function("relax", 10);
  const int lib_min =
      s.add_function_at("lib_min", 10, s.function_base(scan) + collide_1k);
  const int outer =
      s.add_function_at("outer", 20, s.function_base(relax) + collide_4k);

  s.call(main_fn);
  s.loop(init, 4096);
  for (int src = 0; src < 8; ++src) {
    for (int iter = 0; iter < 64; ++iter) {
      s.loop(scan, 64);
      s.call(lib_min);
      s.loop(relax, 64);
      s.call(outer);
    }
  }
  return s;
}

InstructionSynthesizer fft_skeleton() {
  InstructionSynthesizer s(code_base);
  const int main_fn = s.add_function("main", 40);
  const int sig = s.add_function("signal_gen", 12);
  const int bitrev = s.add_function("bit_reverse", 18);
  const int bfly = s.add_function("butterfly", 26);
  const int mac =
      s.add_function_at("complex_mac", 22, s.function_base(bfly) + collide_4k);
  const int sincos = s.add_function_at("twiddle_sincos", 60,
                                       s.function_base(bfly) + collide_16k);

  s.call(main_fn);
  for (int round = 0; round < 3; ++round) {
    s.loop(sig, 1024);
    s.loop(bitrev, 1024);
    for (int stage = 0; stage < 10; ++stage) {
      for (int chunk = 0; chunk < 8; ++chunk) {
        s.loop(bfly, 64);
        s.call(mac);
        s.call(mac);
        s.call(sincos);
      }
    }
  }
  return s;
}

InstructionSynthesizer jpeg_enc_skeleton() {
  InstructionSynthesizer s(code_base);
  const int main_fn = s.add_function("main", 40);
  const int load_blk = s.add_function("load_block", 20);
  const int dct_row = s.add_function("dct_row", 24);
  const int dct_col = s.add_function("dct_col", 24);
  const int quant = s.add_function("quantize", 16);
  const int rle = s.add_function("zigzag_rle", 30);
  const int helper = s.add_function_at("dct_helper", 18,
                                       s.function_base(dct_row) + collide_4k);
  const int bitlib = s.add_function_at("bit_emit_lib", 40,
                                       s.function_base(quant) + collide_16k);

  s.call(main_fn);
  for (int block = 0; block < 96; ++block) {
    s.loop(load_blk, 8);
    s.loop(dct_row, 64);
    for (int r = 0; r < 8; ++r) s.call(helper);
    s.loop(dct_col, 64);
    for (int r = 0; r < 8; ++r) s.call(helper);
    s.loop(quant, 4);
    s.loop(rle, 2);
    s.call(bitlib);
  }
  return s;
}

InstructionSynthesizer jpeg_dec_skeleton() {
  InstructionSynthesizer s(code_base);
  const int main_fn = s.add_function("main", 40);
  const int parse = s.add_function("parse_stream", 26);
  const int dequant = s.add_function("dequantize", 14);
  const int idct_col = s.add_function("idct_col", 24);
  const int idct_row = s.add_function("idct_row", 24);
  const int store = s.add_function("store_block", 18);
  const int helper = s.add_function_at(
      "idct_helper", 18, s.function_base(idct_col) + collide_4k);
  const int bitlib = s.add_function_at("bit_fetch_lib", 40,
                                       s.function_base(parse) + collide_16k);

  s.call(main_fn);
  for (int block = 0; block < 96; ++block) {
    s.loop(parse, 20);
    s.call(bitlib);
    s.loop(dequant, 64);
    s.loop(idct_col, 64);
    for (int r = 0; r < 8; ++r) s.call(helper);
    s.loop(idct_row, 64);
    for (int r = 0; r < 8; ++r) s.call(helper);
    s.loop(store, 8);
  }
  return s;
}

InstructionSynthesizer lame_skeleton() {
  InstructionSynthesizer s(code_base);
  const int main_fn = s.add_function("main", 30);
  const int shift_in = s.add_function("shift_in", 14);
  const int window = s.add_function("windowing", 20);
  const int partial = s.add_function("partial_sums", 16);
  const int matrixing = s.add_function("matrixing", 24);
  const int win_helper = s.add_function_at(
      "window_helper", 18, s.function_base(window) + collide_4k);
  const int cos_lib = s.add_function_at(
      "cos_table_lib", 50, s.function_base(matrixing) + collide_16k);

  s.call(main_fn);
  for (int granule = 0; granule < 48; ++granule) {
    s.loop(shift_in, 32);
    for (int part = 0; part < 8; ++part) {
      s.loop(window, 64);
      s.call(win_helper);
    }
    s.loop(partial, 64);
    for (int sb = 0; sb < 8; ++sb) {
      s.loop(matrixing, 64);
      s.call(cos_lib);
    }
  }
  return s;
}

InstructionSynthesizer rijndael_skeleton() {
  // Heavily unrolled encryption body larger than the 4-KB cache plus a
  // main loop placed exactly one 16-KB cache beyond it: at 16 KB the only
  // misses are the main<->encrypt collisions (fully removable, as in
  // Table 2 where rijndael loses 100% of its 16-KB I-cache misses); at
  // 1/4 KB the body exceeds capacity and nothing is removable.
  InstructionSynthesizer s(code_base);
  const int encrypt = s.add_function("encrypt_block_unrolled", 1100);
  const int main_fn = s.add_function_at(
      "main_loop", 60, s.function_base(encrypt) + collide_16k);

  for (int block = 0; block < 800; ++block) {
    s.call(main_fn);
    s.call(encrypt);
  }
  return s;
}

InstructionSynthesizer susan_skeleton() {
  InstructionSynthesizer s(code_base);
  const int main_fn = s.add_function("main", 30);
  const int mask_loop = s.add_function("mask_loop", 8);
  const int lut_helper = s.add_function_at(
      "lut_helper", 12, s.function_base(mask_loop) + collide_1k);
  const int row_helper =
      s.add_function_at("row_setup", 20, s.function_base(main_fn) + collide_4k);
  const int rare_lib = s.add_function_at(
      "border_lib", 30, s.function_base(mask_loop) + collide_16k);

  s.call(main_fn);
  for (int y = 0; y < 42; ++y) {
    s.call(row_helper);
    s.call(rare_lib);
    for (int x = 0; x < 58; ++x) {
      s.loop(mask_loop, 37);
      s.call(lut_helper);
      s.call(lut_helper);
    }
  }
  return s;
}

InstructionSynthesizer adpcm_skeleton(int samples, int body_insns) {
  InstructionSynthesizer s(code_base);
  const int main_fn = s.add_function("main", 20);
  const int body = s.add_function("codec_body",
                                  static_cast<std::uint32_t>(body_insns));
  const int step_helper = s.add_function_at(
      "step_helper", 9, s.function_base(body) + collide_1k);
  const int rare = s.add_function_at("output_flush", 14,
                                     s.function_base(body) + collide_4k);

  s.call(main_fn);
  const int chunks = samples / 4;
  for (int chunk = 0; chunk < chunks; ++chunk) {
    s.loop(body, 4);
    s.call(step_helper);
    if (chunk % 16 == 0) s.call(rare);
  }
  return s;
}

InstructionSynthesizer mpeg2_dec_skeleton() {
  InstructionSynthesizer s(code_base);
  const int main_fn = s.add_function("main", 40);
  const int parse_mb = s.add_function("parse_macroblock", 30);
  const int idct_col = s.add_function("idct_col", 24);
  const int idct_row = s.add_function("idct_row", 24);
  const int mc_loop = s.add_function("motion_comp", 18);
  const int idct_helper = s.add_function_at(
      "idct_helper", 20, s.function_base(idct_col) + collide_4k);
  const int mc_lib = s.add_function_at("mc_clip_lib", 36,
                                       s.function_base(mc_loop) + collide_16k);
  const int copy = s.add_function("frame_copy", 10);

  s.call(main_fn);
  for (int mb = 0; mb < 24; ++mb) {
    s.call(parse_mb);
    for (int sub = 0; sub < 4; ++sub) {
      s.loop(idct_col, 64);
      for (int r = 0; r < 4; ++r) s.call(idct_helper);
      s.loop(idct_row, 64);
      for (int r = 0; r < 4; ++r) s.call(idct_helper);
      s.loop(mc_loop, 64);
      s.call(mc_lib);
    }
  }
  s.loop(copy, 6144);
  return s;
}

/// Generic PowerStone-scale skeleton: one hot body with a 1-KB-colliding
/// helper; Table 3 uses data caches only, so these mainly provide uop
/// counts and a realistic small-code shape.
InstructionSynthesizer small_loop_skeleton(std::uint32_t body_insns,
                                           std::uint64_t iterations,
                                           int helper_every) {
  InstructionSynthesizer s(code_base);
  const int main_fn = s.add_function("main", 24);
  const int body = s.add_function("kernel_body", body_insns);
  const int helper =
      s.add_function_at("helper", 12, s.function_base(body) + collide_1k);

  s.call(main_fn);
  const auto chunk = static_cast<std::uint64_t>(helper_every);
  for (std::uint64_t done = 0; done < iterations; done += chunk) {
    s.loop(body, std::min(chunk, iterations - done));
    s.call(helper);
  }
  return s;
}

}  // namespace

InstructionSynthesizer program_skeleton(std::string_view name) {
  const std::string key(name);
  if (key == "dijkstra") return dijkstra_skeleton();
  if (key == "fft") return fft_skeleton();
  if (key == "jpeg_enc") return jpeg_enc_skeleton();
  if (key == "jpeg_dec") return jpeg_dec_skeleton();
  if (key == "lame") return lame_skeleton();
  if (key == "rijndael") return rijndael_skeleton();
  if (key == "susan") return susan_skeleton();
  if (key == "adpcm_enc") return adpcm_skeleton(60000, 13);
  if (key == "adpcm_dec") return adpcm_skeleton(60000, 12);
  if (key == "mpeg2_dec") return mpeg2_dec_skeleton();

  // PowerStone.
  if (key == "adpcm") return adpcm_skeleton(25000, 12);
  if (key == "bcnt") return small_loop_skeleton(9, 24576, 64);
  if (key == "blit") return small_loop_skeleton(11, 16384, 64);
  if (key == "compress") return small_loop_skeleton(16, 20000, 32);
  if (key == "crc") return small_loop_skeleton(8, 24576, 128);
  if (key == "des") return small_loop_skeleton(48, 4000, 16);
  if (key == "engine") return small_loop_skeleton(26, 4000, 8);
  if (key == "fir") return small_loop_skeleton(10, 44800, 64);
  if (key == "g3fax") return small_loop_skeleton(14, 6000, 16);
  if (key == "jpeg") return small_loop_skeleton(40, 6000, 8);
  if (key == "pocsag") return small_loop_skeleton(22, 2880, 16);
  if (key == "qurt") return small_loop_skeleton(30, 400, 4);
  if (key == "ucbqsort") return small_loop_skeleton(12, 15000, 32);
  if (key == "v42") return small_loop_skeleton(18, 16000, 32);

  throw std::invalid_argument("unknown workload: " + key);
}

SkeletonTrace synthesize_instructions(std::string_view name) {
  const InstructionSynthesizer s = program_skeleton(name);
  return {s.expand(), s.instructions_emitted()};
}

}  // namespace xoridx::workloads
