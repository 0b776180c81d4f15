// Instruction-fetch trace synthesis (DESIGN.md substitution 2).
//
// We cannot trace the host's instruction fetch, so each workload carries a
// *program skeleton*: functions with code sizes placed sequentially in a
// code segment (4 bytes per instruction, as on ARM), plus a call/loop
// script mirroring the kernel's phase structure. Executing the script
// emits the fetch-address stream: sequential within a body, jumping
// between functions on calls. Hot functions whose address ranges collide
// modulo the cache size conflict in a direct-mapped I-cache — the
// phenomenon Table 2's instruction-cache half measures.
//
// The synthesizer records the script, not the stream: each call, loop or
// block is one run of `count` sequential fetches from `base`, repeated
// `iterations` times. The instruction count is a sum over the runs, so a
// data-side user never pays for the stream; expand() builds it on request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace xoridx::workloads {

/// `iterations` passes over the `count` instructions starting at `base`.
struct FetchRun {
  std::uint64_t base = 0;
  std::uint32_t count = 0;
  std::uint64_t iterations = 0;
};

class InstructionSynthesizer {
 public:
  explicit InstructionSynthesizer(std::uint64_t code_base = 0x100000)
      : cursor_(code_base) {}

  /// Place a function of `instructions` 4-byte instructions at the current
  /// layout cursor; returns its id.
  int add_function(std::string name, std::uint32_t instructions);

  /// Leave a hole in the layout (cold code, other modules).
  void add_gap(std::uint32_t instructions) { cursor_ += 4ull * instructions; }

  /// Place a function at an absolute address at or after the cursor.
  /// Used to realize the collision layouts of DESIGN.md substitution 2:
  /// a helper at +S bytes from a hot loop conflicts with it in every
  /// direct-mapped cache of size dividing S.
  int add_function_at(std::string name, std::uint32_t instructions,
                      std::uint64_t address);

  /// Fetch the whole body once (straight-line execution).
  void call(int fn);

  /// Fetch the whole body `iterations` times (the body is a loop).
  void loop(int fn, std::uint64_t iterations);

  /// Fetch `length` instructions starting at instruction `offset` of `fn`
  /// (one basic block), `iterations` times. Throws std::out_of_range if
  /// the block does not lie inside the body.
  void block(int fn, std::uint32_t offset, std::uint32_t length,
             std::uint64_t iterations = 1);

  /// Instructions the script executes: the length of expand().
  [[nodiscard]] std::uint64_t instructions_emitted() const noexcept {
    return emitted_;
  }

  /// The recorded script, in execution order. A run repeating the one
  /// before it is folded into that run's iterations.
  [[nodiscard]] const std::vector<FetchRun>& script() const noexcept {
    return script_;
  }

  /// The fetch stream the script executes, one access per instruction.
  [[nodiscard]] trace::Trace expand() const;

  [[nodiscard]] std::uint64_t function_base(int fn) const;
  [[nodiscard]] std::uint32_t function_size(int fn) const;

 private:
  struct Function {
    std::string name;
    std::uint64_t base = 0;
    std::uint32_t instructions = 0;
  };

  void record(std::uint64_t base, std::uint32_t count,
              std::uint64_t iterations);

  std::uint64_t cursor_;
  std::uint64_t emitted_ = 0;
  std::vector<Function> functions_;
  std::vector<FetchRun> script_;
};

}  // namespace xoridx::workloads
