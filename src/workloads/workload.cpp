#include "workloads/workload.hpp"

#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "workloads/kernels_mediabench.hpp"
#include "workloads/kernels_mibench.hpp"
#include "workloads/kernels_powerstone.hpp"
#include "workloads/skeletons.hpp"
#include "workloads/traced_memory.hpp"

namespace xoridx::workloads {

namespace {

using KernelFn = std::function<std::uint64_t(TraceContext&, Scale)>;

struct Entry {
  Suite suite;
  KernelFn kernel;
};

int pick(Scale scale, int small_value, int full_value) {
  return scale == Scale::small ? small_value : full_value;
}

const std::unordered_map<std::string, Entry>& registry() {
  static const std::unordered_map<std::string, Entry> map = {
      // ------------------------- Table 2 -------------------------
      {"dijkstra",
       {Suite::table2,
        [](TraceContext& ctx, Scale s) {
          return run_dijkstra(ctx, pick(s, 16, 64), pick(s, 2, 8));
        }}},
      {"fft",
       {Suite::table2,
        [](TraceContext& ctx, Scale s) {
          return run_fft(ctx, pick(s, 6, 10), pick(s, 1, 3));
        }}},
      {"jpeg_enc",
       {Suite::table2,
        [](TraceContext& ctx, Scale s) {
          return run_jpeg_enc(ctx, pick(s, 16, 96), pick(s, 16, 64));
        }}},
      {"jpeg_dec",
       {Suite::table2,
        [](TraceContext& ctx, Scale s) {
          return run_jpeg_dec(ctx, pick(s, 16, 96), pick(s, 16, 64));
        }}},
      {"lame",
       {Suite::table2,
        [](TraceContext& ctx, Scale s) {
          return run_lame(ctx, pick(s, 4, 48));
        }}},
      {"rijndael",
       {Suite::table2,
        [](TraceContext& ctx, Scale s) {
          return run_rijndael(ctx, pick(s, 32, 800));
        }}},
      {"susan",
       {Suite::table2,
        [](TraceContext& ctx, Scale s) {
          return run_susan(ctx, pick(s, 16, 64), pick(s, 16, 48));
        }}},
      {"adpcm_dec",
       {Suite::table2,
        [](TraceContext& ctx, Scale s) {
          return run_adpcm_dec(ctx, pick(s, 2000, 60000));
        }}},
      {"adpcm_enc",
       {Suite::table2,
        [](TraceContext& ctx, Scale s) {
          return run_adpcm_enc(ctx, pick(s, 2000, 60000));
        }}},
      {"mpeg2_dec",
       {Suite::table2,
        [](TraceContext& ctx, Scale s) {
          return run_mpeg2_dec(ctx, pick(s, 32, 96), pick(s, 32, 64),
                               pick(s, 1, 1));
        }}},
      // ------------------------ PowerStone -----------------------
      {"adpcm",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_adpcm_enc(ctx, pick(s, 2000, 25000));
        }}},
      {"bcnt",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_bcnt(ctx, pick(s, 512, 2048), pick(s, 2, 12));
        }}},
      {"blit",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_blit(ctx, pick(s, 16, 64), pick(s, 8, 32), 5,
                          pick(s, 2, 8));
        }}},
      {"compress",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_compress(ctx, pick(s, 2000, 20000));
        }}},
      {"crc",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_crc(ctx, pick(s, 1024, 8192), pick(s, 1, 3));
        }}},
      {"des",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_des(ctx, pick(s, 16, 250));
        }}},
      {"engine",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_engine(ctx, pick(s, 400, 4000));
        }}},
      {"fir",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_fir(ctx, 64, pick(s, 100, 700));
        }}},
      // NOTE: qurt/ucbqsort scales keep the working set inside a 4 KB
      // cache, as in the original tiny PowerStone inputs.
      {"g3fax",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_g3fax(ctx, pick(s, 512, 1728), pick(s, 8, 40));
        }}},
      {"jpeg",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_jpeg_enc(ctx, pick(s, 16, 48), pick(s, 16, 32));
        }}},
      {"pocsag",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_pocsag(ctx, pick(s, 20, 180));
        }}},
      {"qurt",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_qurt(ctx, pick(s, 50, 150));
        }}},
      {"ucbqsort",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_ucbqsort(ctx, pick(s, 200, 900));
        }}},
      {"v42",
       {Suite::powerstone,
        [](TraceContext& ctx, Scale s) {
          return run_v42(ctx, pick(s, 2000, 16000));
        }}},
  };
  return map;
}

}  // namespace

const std::vector<std::string>& workload_names(Suite suite) {
  static const std::vector<std::string> table2 = {
      "dijkstra", "fft",   "jpeg_enc",  "jpeg_dec",  "lame",
      "rijndael", "susan", "adpcm_dec", "adpcm_enc", "mpeg2_dec"};
  static const std::vector<std::string> powerstone = {
      "adpcm", "bcnt",  "blit",   "compress", "crc",  "des",      "engine",
      "fir",   "g3fax", "jpeg",   "pocsag",   "qurt", "ucbqsort", "v42"};
  return suite == Suite::table2 ? table2 : powerstone;
}

Workload make_workload(std::string_view name, Scale scale) {
  const auto it = registry().find(std::string(name));
  if (it == registry().end())
    throw std::invalid_argument("unknown workload: " + std::string(name));

  Workload w;
  w.name = std::string(name);
  w.suite = it->second.suite;

  TraceContext ctx;
  w.checksum = it->second.kernel(ctx, scale);
  w.data = std::move(ctx.data);

  w.uops = program_skeleton(name).instructions_emitted();
  return w;
}

}  // namespace xoridx::workloads
