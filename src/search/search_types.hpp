// Shared types for the design-space search (paper Section 3.2).
#pragma once

#include <cstdint>
#include <limits>

namespace xoridx::search {

/// The function classes evaluated in the paper.
enum class FunctionClass {
  bit_select,   ///< "1-in": each index bit is one address bit
  permutation,  ///< Section 4: [G; I] form, conventional tag
  general_xor,  ///< unrestricted XOR functions (null-space search)
};

/// Constraints and knobs for a search run.
struct SearchOptions {
  FunctionClass function_class = FunctionClass::permutation;

  /// Maximum inputs per XOR gate ("2-in"/"4-in" of Table 2). The value
  /// `unlimited` reproduces the paper's "16-in" columns. Read by the
  /// permutation search only: bit-select is always 1-in, and the general
  /// XOR search has no fan-in constraint (the strategy grammar rejects
  /// "xor:fanin=N").
  int max_fan_in = unlimited;

  /// Number of additional random starting points beyond the conventional
  /// index (0 = paper behaviour: start at the conventional function).
  int random_restarts = 0;

  /// Seed for the restart generator.
  std::uint64_t seed = 0x5eed;

  /// Safety bound on hill-climbing iterations (each iteration scans the
  /// full neighborhood; convergence is typically < 30 iterations).
  int max_iterations = 1000;

  /// Accepted from "threads=K" specs (K >= 0) but read by no search:
  /// every search scans serially on the calling thread, starting no
  /// thread and borrowing no pool. A chunked permutation scan on a
  /// private pool measured 0.29-0.38x of the serial scan, and one on
  /// helpers borrowed from the campaign's pool 0.49-0.67x
  /// (search_kernels, 4 vCPUs), so neither is kept. The chosen function,
  /// every estimate and the full SearchStats do not depend on the value.
  int threads = 1;

  static constexpr int unlimited = std::numeric_limits<int>::max();
};

/// Bookkeeping of one hill-climbing run.
struct SearchStats {
  /// Candidate functions *considered*: the starting point of each climb
  /// counts once, and every neighborhood candidate that passes its
  /// structural gate (e.g. the fan-in cap) counts once — whether it was
  /// priced by full null-space enumeration, by an O(1) zeta lookup, or
  /// incrementally as a coset delta. Shared subexpressions (the zeta
  /// build, a per-row core estimate) never count. This convention is
  /// asserted inside the searches and keeps evaluation counts comparable
  /// across serial/parallel runs, shard boundaries and pre-kernel-rewrite
  /// reports.
  std::uint64_t evaluations = 0;
  int iterations = 0;  ///< accepted steepest-descent moves
  int restarts_used = 0;
  std::uint64_t start_estimate = 0;
  std::uint64_t best_estimate = 0;
};

}  // namespace xoridx::search
