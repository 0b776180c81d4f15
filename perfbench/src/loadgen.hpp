// Seeded open-loop schedule and request mix of the serve episode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a small, fully specified generator, so one seed gives one
/// schedule on every standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Uniform in [0, bound) (bound > 0).
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// Share of requests that exactly repeat one of the last
/// `repeat_window` new requests (the memo-hit "read" path); the memo
/// keeps 64 entries, so a repeat finds its original there.
inline constexpr double repeat_share = 0.3;
inline constexpr std::size_t repeat_window = 32;

struct LoadSpec {
  double rate_per_s = 100.0;  ///< mean Poisson arrival rate
  double window_s = 10.0;     ///< arrivals are due in [0, window_s)
  std::vector<std::string> workloads;  ///< small-scale registry names
};

/// One scheduled request. Structurally new requests carry a fresh
/// `restart_seed`; a repeat copies the fields of request `repeat_of`.
struct PlannedRequest {
  double due_s = 0.0;
  std::string workload;
  std::uint32_t cache_bytes = 0;
  std::uint64_t restart_seed = 0;
  std::int64_t repeat_of = -1;  ///< index of the request it repeats

  [[nodiscard]] bool is_repeat() const { return repeat_of >= 0; }
  /// Strategy specs sent with the request, in cell order.
  [[nodiscard]] std::vector<std::string> strategies() const;
  /// The NDJSON explore command for this request under `id`.
  [[nodiscard]] std::string command(const std::string& id) const;
};

/// Deterministic in (seed, spec): Poisson arrivals over the window and
/// the new/repeat mix. New requests cycle through every (workload, cache
/// size in {1, 4} KB) pair in a seeded shuffled order.
[[nodiscard]] std::vector<PlannedRequest> plan_requests(std::uint64_t seed,
                                                        const LoadSpec& spec);

}  // namespace perfbench
