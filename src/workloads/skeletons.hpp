// Per-workload program skeletons: instruction-fetch traces and executed
// instruction (uop) counts. See DESIGN.md substitution 2 for why these are
// synthesized rather than captured.
#pragma once

#include <cstdint>
#include <string_view>

#include "trace/trace.hpp"
#include "workloads/instruction_synthesizer.hpp"

namespace xoridx::workloads {

struct SkeletonTrace {
  trace::Trace fetches;
  std::uint64_t instructions = 0;
};

/// A workload's skeleton as a fetch script (the registry names of
/// workload.hpp): its instruction count without the stream. Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] InstructionSynthesizer program_skeleton(std::string_view name);

/// Instruction trace for a workload by name: the skeleton's script,
/// expanded. Throws std::invalid_argument for unknown names.
[[nodiscard]] SkeletonTrace synthesize_instructions(std::string_view name);

}  // namespace xoridx::workloads
