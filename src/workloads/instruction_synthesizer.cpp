#include "workloads/instruction_synthesizer.hpp"

#include <stdexcept>

namespace xoridx::workloads {

int InstructionSynthesizer::add_function(std::string name,
                                         std::uint32_t instructions) {
  if (instructions == 0)
    throw std::invalid_argument("function must have at least 1 instruction");
  Function f;
  f.name = std::move(name);
  f.base = cursor_;
  f.instructions = instructions;
  cursor_ += 4ull * instructions;
  functions_.push_back(std::move(f));
  return static_cast<int>(functions_.size()) - 1;
}

int InstructionSynthesizer::add_function_at(std::string name,
                                            std::uint32_t instructions,
                                            std::uint64_t address) {
  if (address < cursor_)
    throw std::invalid_argument("address behind layout cursor");
  cursor_ = address;
  return add_function(std::move(name), instructions);
}

void InstructionSynthesizer::call(int fn) { loop(fn, 1); }

void InstructionSynthesizer::loop(int fn, std::uint64_t iterations) {
  const Function& f = functions_.at(static_cast<std::size_t>(fn));
  record(f.base, f.instructions, iterations);
}

void InstructionSynthesizer::block(int fn, std::uint32_t offset,
                                   std::uint32_t length,
                                   std::uint64_t iterations) {
  const Function& f = functions_.at(static_cast<std::size_t>(fn));
  const std::uint32_t n = f.instructions;
  if (length > n || offset > n - length)
    throw std::out_of_range("basic block outside function body");
  record(f.base + 4ull * offset, length, iterations);
}

void InstructionSynthesizer::record(std::uint64_t base, std::uint32_t count,
                                    std::uint64_t iterations) {
  emitted_ += count * iterations;
  if (!script_.empty() && script_.back().base == base &&
      script_.back().count == count) {
    script_.back().iterations += iterations;
    return;
  }
  script_.push_back({base, count, iterations});
}

trace::Trace InstructionSynthesizer::expand() const {
  trace::Trace t;
  t.reserve(emitted_);
  for (const FetchRun& run : script_)
    for (std::uint64_t it = 0; it < run.iterations; ++it)
      for (std::uint32_t i = 0; i < run.count; ++i)
        t.append(run.base + 4ull * i, trace::AccessKind::fetch);
  return t;
}

std::uint64_t InstructionSynthesizer::function_base(int fn) const {
  return functions_.at(static_cast<std::size_t>(fn)).base;
}

std::uint32_t InstructionSynthesizer::function_size(int fn) const {
  return functions_.at(static_cast<std::size_t>(fn)).instructions;
}

}  // namespace xoridx::workloads
