// The running winner of a neighborhood scan, shared by the permutation
// and general-XOR climbs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xoridx::search {

/// The running winner of a scan: smallest estimate, earliest scan rank —
/// the (est, rank)-lexicographic order of a first-strict-improvement
/// loop. Seed `estimate` with the incumbent (current climb) estimate and
/// offer candidates in ascending rank order; rank stays -1 when none
/// improved.
struct ScanBest {
  std::uint64_t estimate = 0;  ///< seed with the incumbent before offering
  std::ptrdiff_t rank = -1;    ///< scan rank of the winner, -1 = none

  /// Strictly smaller estimates win; equal estimates keep the earlier
  /// rank.
  void offer(std::uint64_t est, std::ptrdiff_t candidate_rank) {
    if (est < estimate) {
      estimate = est;
      rank = candidate_rank;
    }
  }
};

}  // namespace xoridx::search
