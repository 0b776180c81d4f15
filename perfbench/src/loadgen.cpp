#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "serve/json.hpp"

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix64::below(std::uint64_t bound) {
  // Rejection keeps the draw exactly uniform.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % bound;
}

std::vector<std::string> PlannedRequest::strategies() const {
  std::string fresh = "perm:restarts=1:seed=";
  fresh += std::to_string(restart_seed);
  return {"base", "perm:2", std::move(fresh)};
}

std::string PlannedRequest::command(const std::string& id) const {
  using xoridx::serve::json_quote;
  std::string line = "{\"cmd\":\"explore\",\"id\":";
  line += json_quote(id);
  line += ",\"traces\":[{\"workload\":";
  line += json_quote(workload);
  line += ",\"scale\":\"small\"}],\"caches\":[";
  line += std::to_string(cache_bytes);
  line += "],\"strategies\":[";
  const std::vector<std::string> specs = strategies();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i != 0) line += ',';
    line += json_quote(specs[i]);
  }
  return line + "]}";
}

std::vector<PlannedRequest> plan_requests(std::uint64_t seed,
                                          const LoadSpec& spec) {
  if (spec.rate_per_s <= 0 || spec.window_s <= 0 || spec.workloads.empty())
    throw std::invalid_argument("load spec needs a rate, a window and "
                                "workloads");
  constexpr std::uint32_t caches[] = {1024, 4096};
  SplitMix64 arrivals(seed ^ 0xA5A5A5A5A5A5A5A5ull);
  SplitMix64 mix(seed);
  // New requests deal (workload, cache) pairs from a shuffled deck, so
  // every pair recurs equally often whatever the seed: the seed moves
  // the order and the timing, not the mix of work.
  std::vector<std::pair<std::size_t, std::size_t>> deck;
  std::size_t dealt = 0;
  std::vector<PlannedRequest> plan;
  std::vector<std::size_t> recent_new;  // indices of new requests
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-arrivals.uniform()) / spec.rate_per_s;
    if (t >= spec.window_s) break;
    PlannedRequest request;
    if (!recent_new.empty() && mix.uniform() < repeat_share) {
      const std::size_t window =
          std::min(recent_new.size(), repeat_window);
      const std::size_t pick =
          recent_new[recent_new.size() - 1 - mix.below(window)];
      request = plan[pick];
      request.repeat_of = static_cast<std::int64_t>(pick);
    } else {
      if (dealt == deck.size()) {
        deck.clear();
        for (std::size_t w = 0; w < spec.workloads.size(); ++w)
          for (std::size_t c = 0; c < std::size(caches); ++c)
            deck.emplace_back(w, c);
        for (std::size_t i = deck.size(); i > 1; --i)
          std::swap(deck[i - 1], deck[mix.below(i)]);
        dealt = 0;
      }
      const auto [w, c] = deck[dealt++];
      request.workload = spec.workloads[w];
      request.cache_bytes = caches[c];
      request.restart_seed = mix.next() >> 16;
      recent_new.push_back(plan.size());
    }
    request.due_s = t;
    plan.push_back(std::move(request));
  }
  return plan;
}

}  // namespace perfbench
