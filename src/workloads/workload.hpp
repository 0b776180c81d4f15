// Workload registry: named benchmark programs with data traces and uop
// counts — the inputs to the paper's Table 2 and Table 3 evaluation. The
// instruction-fetch trace of the same program comes from
// synthesize_instructions (skeletons.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"

namespace xoridx::workloads {

enum class Suite {
  table2,      ///< the 10 MediaBench/MiBench programs of Table 2
  powerstone,  ///< the 14 PowerStone programs of Table 3
};

/// How large an input to run. `full` reproduces the evaluation; `small`
/// keeps unit tests fast.
enum class Scale { small, full };

struct Workload {
  std::string name;
  Suite suite = Suite::table2;
  trace::Trace data;  ///< loads and stores of the kernel
  std::uint64_t uops = 0;  ///< executed instructions (1 uop each, SA-110)
  std::uint64_t checksum = 0;  ///< kernel result, checked by golden tests
};

/// Names of all workloads in a suite, in the paper's table order.
[[nodiscard]] const std::vector<std::string>& workload_names(Suite suite);

/// Build one workload by name. Throws std::invalid_argument for unknown
/// names. Deterministic: equal names and scales give identical traces.
[[nodiscard]] Workload make_workload(std::string_view name,
                                     Scale scale = Scale::full);

}  // namespace xoridx::workloads
