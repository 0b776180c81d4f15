// Regenerates Table 2: baseline misses per K-uop and the percentage of
// cache misses removed by optimized permutation-based XOR functions with
// at most 2 (2-in), 4 (4-in) or unlimited (16-in) inputs per XOR, for
// data caches and instruction caches of 1/4/16 KB.
//
// The whole sweep — every (workload, trace side, cache size, fan-in)
// cell — runs as one engine campaign, so all searches execute
// concurrently while the aggregation stays in table order.
//
// Absolute numbers differ from the paper (synthetic traces, see
// DESIGN.md); the shape to check is: large average reductions that peak
// around the mid cache size on data caches, larger reductions on
// instruction caches, 2-in within a few percent of 16-in, and occasional
// small negative entries.
//
//   table2_xor_functions [--small] [--threads N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_util.hpp"
#include "workloads/skeletons.hpp"
#include "xoridx/api.hpp"

namespace {

using namespace xoridx;
using bench::cell;

struct Row {
  std::string name;
  // [geometry] -> base misses/K-uop and % removed for 2/4/16-in.
  std::vector<double> base;
  std::vector<double> in2;
  std::vector<double> in4;
  std::vector<double> in16;
};

// Assemble one printed row from the report rows of one trace.
Row make_row(const api::Report& report, std::size_t trace_index,
             const std::string& name, std::uint64_t uops) {
  Row row;
  row.name = name;
  const std::size_t geoms = report.geometries.size();
  for (std::size_t g = 0; g < geoms; ++g) {
    const auto& base = report.at(trace_index, g, 0);
    const auto& opt2 = report.at(trace_index, g, 1);
    const auto& opt4 = report.at(trace_index, g, 2);
    const auto& opt16 = report.at(trace_index, g, 3);
    row.base.push_back(bench::misses_per_kuop(base.misses, uops));
    row.in2.push_back(opt2.percent_removed());
    row.in4.push_back(opt4.percent_removed());
    row.in16.push_back(opt16.percent_removed());
  }
  return row;
}

void print_block(const char* title, const std::vector<Row>& rows) {
  std::printf("\n%s\n", title);
  std::printf("%-10s", "benchmark");
  for (const char* size : {"1 KB cache", "4 KB cache", "16 KB cache"})
    std::printf(" |%11s%17s", size, "");
  std::printf("\n%-10s", "");
  for (int g = 0; g < 3; ++g)
    std::printf(" | %6s %6s %6s %6s", "base", "2-in", "4-in", "16-in");
  std::printf("\n");

  std::vector<double> avg_base(3, 0), avg2(3, 0), avg4(3, 0), avg16(3, 0);
  std::vector<double> base_sum(3, 0), removed2(3, 0), removed4(3, 0),
      removed16(3, 0);
  for (const Row& r : rows) {
    std::printf("%-10s", r.name.c_str());
    for (int g = 0; g < 3; ++g)
      std::printf(" | %s %s %s %s", cell(r.base[g]).c_str(),
                  cell(r.in2[g]).c_str(), cell(r.in4[g]).c_str(),
                  cell(r.in16[g]).c_str());
    std::printf("\n");
    for (int g = 0; g < 3; ++g) {
      avg_base[g] += r.base[g] / static_cast<double>(rows.size());
      // The paper's "average" row averages miss *rates*: weight each
      // benchmark's removal by its baseline miss density.
      base_sum[g] += r.base[g];
      removed2[g] += r.base[g] * r.in2[g] / 100.0;
      removed4[g] += r.base[g] * r.in4[g] / 100.0;
      removed16[g] += r.base[g] * r.in16[g] / 100.0;
    }
  }
  std::printf("%-10s", "average");
  for (int g = 0; g < 3; ++g) {
    const double b = base_sum[g];
    std::printf(" | %s %s %s %s", cell(avg_base[g]).c_str(),
                cell(b > 0 ? 100.0 * removed2[g] / b : 0.0).c_str(),
                cell(b > 0 ? 100.0 * removed4[g] / b : 0.0).c_str(),
                cell(b > 0 ? 100.0 * removed16[g] / b : 0.0).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = bench::parse_threads(argv[++i]);
  }
  const workloads::Scale scale =
      small ? workloads::Scale::small : workloads::Scale::full;

  std::printf(
      "Table 2. Baseline misses/K-uop and percentage of cache misses "
      "removed with optimized permutation-based XOR functions\n"
      "(direct mapped, 4-byte blocks, n = 16; searches per benchmark and "
      "cache size).\n");

  // One exploration: both trace sides of every workload, all
  // geometries, baseline + three fan-in limits.
  api::ExplorationRequest request;
  for (const cache::CacheGeometry& geom : bench::paper_geometries())
    request.geometries.emplace_back(geom);
  request.hashed_bits = bench::paper_hashed_bits;
  request.num_threads = threads;
  request.strategies = {
      api::parse_strategy("base").value(),
      api::parse_strategy("perm:fanin=2").value().relabel("perm-2in"),
      api::parse_strategy("perm:fanin=4").value().relabel("perm-4in"),
      api::parse_strategy("perm").value().relabel("perm-16in"),
  };

  std::vector<std::string> names;
  std::vector<std::uint64_t> uops;
  for (const std::string& name :
       workloads::workload_names(workloads::Suite::table2)) {
    workloads::Workload w = workloads::make_workload(name, scale);
    names.push_back(w.name);
    uops.push_back(w.uops);
    request.traces.push_back(
        api::TraceRef::memory(w.name + ".data", std::move(w.data)));
    request.traces.push_back(api::TraceRef::memory(
        w.name + ".inst", workloads::synthesize_instructions(name).fetches));
  }

  bench::ProgressSink progress("table2", request.job_count());
  request.sink = &progress;
  const api::Report report = api::Explorer::explore(request).value();

  std::vector<Row> data_rows;
  std::vector<Row> inst_rows;
  for (std::size_t i = 0; i < names.size(); ++i) {
    data_rows.push_back(make_row(report, 2 * i, names[i], uops[i]));
    inst_rows.push_back(make_row(report, 2 * i + 1, names[i], uops[i]));
  }
  print_block("=== data caches ===", data_rows);
  print_block("=== instruction caches ===", inst_rows);
  return 0;
}
