#include "api/strategy.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace xoridx::api {

namespace {

/// Options any spec may carry; each strategy validates which it accepts.
struct SpecOptions {
  std::optional<int> fanin;
  std::optional<int> restarts;
  std::optional<std::uint64_t> seed;
  std::optional<int> threads;
  bool revert = false;
  bool exact = false;
  bool estimated = false;
};

bool all_digits(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

Status bad_spec(std::string_view spec, const std::string& why) {
  return Status(StatusCode::parse_error,
                "bad strategy spec '" + std::string(spec) + "': " + why)
      .with_strategy(std::string(spec));
}

/// Parse the ':'-separated option list after the name. A bare integer is
/// the legacy fan-in shorthand ("perm:2" == "perm:fanin=2"). The
/// separator is ':' (not ',') so specs compose into comma-separated
/// lists without quoting.
Result<SpecOptions> parse_options(std::string_view spec,
                                  std::string_view opts) {
  SpecOptions out;
  std::size_t start = 0;
  while (start <= opts.size()) {
    const std::size_t sep = opts.find(':', start);
    const std::string_view token =
        opts.substr(start, sep == std::string_view::npos
                               ? std::string_view::npos
                               : sep - start);
    start = sep == std::string_view::npos ? opts.size() + 1 : sep + 1;
    if (token.empty())
      return bad_spec(spec, "empty option");
    if (token == "revert") {
      out.revert = true;
    } else if (token == "exact") {
      out.exact = true;
    } else if (token == "est" || token == "estimated") {
      out.estimated = true;
    } else if (token.rfind("restarts=", 0) == 0) {
      const std::string_view digits = token.substr(9);
      int value = 0;
      const auto [ptr, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), value);
      if (!all_digits(digits) || ec != std::errc{} || value < 0)
        return bad_spec(spec, "restart count '" + std::string(token) +
                                  "' must be a non-negative integer");
      out.restarts = value;
    } else if (token.rfind("threads=", 0) == 0) {
      const std::string_view digits = token.substr(8);
      int value = 0;
      const auto [ptr, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), value);
      if (!all_digits(digits) || ec != std::errc{} || value < 0)
        return bad_spec(spec, "thread count '" + std::string(token) +
                                  "' must be a non-negative integer "
                                  "(0 = one per hardware thread)");
      out.threads = value;
    } else if (token.rfind("seed=", 0) == 0) {
      const std::string_view digits = token.substr(5);
      std::uint64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), value);
      if (!all_digits(digits) || ec != std::errc{})
        return bad_spec(spec, "seed '" + std::string(token) +
                                  "' must be an unsigned integer");
      out.seed = value;
    } else if (all_digits(token) ||
               (token.rfind("fanin=", 0) == 0 &&
                all_digits(token.substr(6)))) {
      const std::string_view digits =
          all_digits(token) ? token : token.substr(6);
      int value = 0;
      const auto [ptr, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), value);
      if (ec != std::errc{} || value < 1)
        return bad_spec(spec, "fan-in '" + std::string(token) +
                                  "' must be a positive integer");
      out.fanin = value;
    } else {
      return bad_spec(spec, "unknown option '" + std::string(token) + "'");
    }
  }
  return out;
}

Status reject_option(std::string_view spec, std::string_view name,
                     const SpecOptions& o, bool allow_fanin,
                     bool allow_revert, bool allow_mode,
                     bool allow_restarts = false) {
  if (o.fanin && !allow_fanin)
    return bad_spec(spec, "strategy '" + std::string(name) +
                              "' takes no fan-in option");
  if (o.revert && !allow_revert)
    return bad_spec(spec, "strategy '" + std::string(name) +
                              "' takes no 'revert' option");
  if ((o.exact || o.estimated) && !allow_mode)
    return bad_spec(spec, "strategy '" + std::string(name) +
                              "' takes no 'exact'/'est' option");
  if ((o.restarts || o.seed || o.threads) && !allow_restarts)
    return bad_spec(spec, "strategy '" + std::string(name) +
                              "' takes no 'restarts'/'seed'/'threads' option");
  return {};
}

}  // namespace

std::optional<search::FunctionClass> Strategy::function_class() const {
  if (config)
    if (const auto* job =
            std::get_if<engine::OptimizeIndexJob>(&config->payload))
      return job->function_class;
  return std::nullopt;
}

Strategy& Strategy::with_fan_in(int max_fan_in) {
  if (config) {
    if (auto* job = std::get_if<engine::OptimizeIndexJob>(&config->payload))
      job->max_fan_in = max_fan_in;
  } else {
    // Deferred: record the option in the spec so the eventual parse
    // honors it (and rejects it if the strategy takes no fan-in).
    spec += ":fanin=" + std::to_string(max_fan_in);
  }
  return *this;
}

Strategy& Strategy::with_revert(bool revert) {
  if (config) {
    if (auto* job = std::get_if<engine::OptimizeIndexJob>(&config->payload))
      job->revert_if_worse = revert;
  } else if (revert) {
    spec += ":revert";
  }
  return *this;
}

Strategy Strategy::deferred(std::string spec, std::string label) {
  Strategy s;
  s.spec = std::move(spec);
  s.label = label.empty() ? s.spec : std::move(label);
  return s;
}

Result<engine::FunctionConfig> lower_strategy(const Strategy& strategy) {
  if (strategy.config) return *strategy.config;
  Result<Strategy> parsed = parse_strategy(strategy.spec);
  if (!parsed.ok()) return parsed.status();
  engine::FunctionConfig config = std::move(*parsed->config);
  if (!strategy.label.empty() && strategy.label != strategy.spec)
    config.label = strategy.label;
  return config;
}

Result<Strategy> parse_strategy(std::string_view spec) {
  if (spec.empty())
    return Status(StatusCode::parse_error, "empty strategy spec");

  const std::size_t colon = spec.find(':');
  std::string_view name = spec.substr(0, colon);
  SpecOptions options;
  if (colon != std::string_view::npos) {
    Result<SpecOptions> parsed =
        parse_options(spec, spec.substr(colon + 1));
    if (!parsed.ok()) return parsed.status();
    options = *parsed;
  }

  Strategy out;
  out.spec = std::string(spec);
  out.label = out.spec;
  const int fanin = options.fanin.value_or(search::SearchOptions::unlimited);
  const int restarts = options.restarts.value_or(0);
  const std::uint64_t seed =
      options.seed.value_or(search::SearchOptions{}.seed);
  const int threads = options.threads.value_or(1);

  // Legacy aliases map onto the canonical names first.
  if (name == "classify") name = "3c";
  if (name == "general") name = "xor";
  if (name == "permutation") name = "perm";
  if (name == "opt" || name == "opt-est") {
    if (Status s = reject_option(spec, name, options, false, false, false);
        !s.ok())
      return s;
    out.config = engine::FunctionConfig::optimal_bit_select(
        out.label, /*use_estimator=*/name == "opt-est");
    return out;
  }

  if (name == "base") {
    if (Status s = reject_option(spec, name, options, false, false, false);
        !s.ok())
      return s;
    out.config = engine::FunctionConfig::baseline(out.label);
  } else if (name == "fa") {
    if (Status s = reject_option(spec, name, options, false, false, false);
        !s.ok())
      return s;
    out.config = engine::FunctionConfig::fully_associative(out.label);
  } else if (name == "3c") {
    if (Status s = reject_option(spec, name, options, false, false, false);
        !s.ok())
      return s;
    out.config = engine::FunctionConfig::classify(out.label);
  } else if (name == "perm") {
    if (Status s = reject_option(spec, name, options, true, true, false, true);
        !s.ok())
      return s;
    out.config = engine::FunctionConfig::optimize(
        out.label, search::FunctionClass::permutation, fanin, options.revert,
        restarts, seed, threads);
  } else if (name == "xor") {
    // The null-space search has no fan-in constraint to apply.
    if (Status s = reject_option(spec, name, options, false, true, false, true);
        !s.ok())
      return s;
    out.config = engine::FunctionConfig::optimize(
        out.label, search::FunctionClass::general_xor, fanin, options.revert,
        restarts, seed, threads);
  } else if (name == "bitselect") {
    if (options.exact && options.estimated)
      return bad_spec(spec, "'exact' and 'est' are mutually exclusive");
    if (options.exact || options.estimated) {
      if (Status s = reject_option(spec, name, options, false, false, true);
          !s.ok())
        return s;
      out.config = engine::FunctionConfig::optimal_bit_select(
          out.label, /*use_estimator=*/options.estimated);
    } else {
      if (Status s =
              reject_option(spec, name, options, false, true, true, true);
          !s.ok())
        return s;
      out.config = engine::FunctionConfig::optimize(
          out.label, search::FunctionClass::bit_select,
          search::SearchOptions::unlimited, options.revert, restarts, seed,
          threads);
    }
  } else {
    return Status(StatusCode::parse_error,
                  "unknown strategy '" + std::string(name) + "'")
        .with_strategy(std::string(spec));
  }
  return out;
}

Result<std::vector<Strategy>> parse_strategies(std::string_view comma_list) {
  std::vector<Strategy> out;
  std::size_t start = 0;
  while (start <= comma_list.size()) {
    const std::size_t comma = comma_list.find(',', start);
    std::string_view token = comma_list.substr(
        start,
        comma == std::string_view::npos ? std::string_view::npos
                                        : comma - start);
    start = comma == std::string_view::npos ? comma_list.size() + 1
                                            : comma + 1;
    if (token.empty()) continue;
    Result<Strategy> parsed = parse_strategy(token);
    if (!parsed.ok()) return parsed.status();
    out.push_back(std::move(*parsed));
  }
  if (out.empty())
    return Status(StatusCode::parse_error, "no strategy specs given");
  return out;
}

const std::vector<StrategyInfo>& strategy_registry() {
  static const std::vector<StrategyInfo> registry = {
      {"base", "", "conventional modulo index (exact simulation)"},
      {"fa", "", "equal-capacity fully-associative LRU bound"},
      {"3c", "", "3C miss breakdown under the conventional index"},
      {"perm", "[:fanin=N][:revert][:restarts=N][:seed=S][:threads=K]",
       "permutation-based XOR search (paper Section 4)"},
      {"xor", "[:revert][:restarts=N][:seed=S][:threads=K]",
       "general XOR search (null-space search; threads=K is accepted "
       "but the scan is one serial transform)"},
      {"bitselect",
       "[:revert][:restarts=N][:seed=S][:threads=K] | [:exact|:est]",
       "bit-selecting search; ':exact'/':est' run the exhaustive "
       "optimal bit-select instead (which takes no other options)"},
  };
  return registry;
}

std::string strategy_grammar_summary() {
  // Options are shown in spec syntax so the line can be copied verbatim.
  std::string out;
  for (const StrategyInfo& info : strategy_registry()) {
    if (!out.empty()) out += " ";
    out += info.name + info.options;
  }
  return out;
}

}  // namespace xoridx::api
