// Strategy: a named indexing/evaluation policy plus its spec grammar.
//
// The paper's experiments are columns of a sweep: simulate the
// conventional index, search a function class under a fan-in budget,
// run the exhaustive bit-select baseline, bound with fully-associative
// LRU, or break misses into 3Cs. Before the API existed the string form
// of those columns was parsed only inside xoridx_cli; this header
// promotes the parser into the library so the CLI, SweepSpec builders
// and future remote/sharded frontends share one grammar.
//
// Grammar:   spec  := name (":" opt)*
//            opt   := key "=" value | flag | integer (fan-in shorthand)
// (options are ':'-separated so specs compose into comma-separated
// lists: "base,perm:2,xor:restarts=2:revert")
//
//   name        options                      meaning
//   base        —                            conventional modulo index
//   fa          —                            fully-associative LRU bound
//   3c          —                            3C miss breakdown (alias:
//                                            classify)
//   perm        fanin=N, revert, N,          permutation-based XOR search
//               restarts=N, seed=S,          (alias: permutation)
//               threads=K
//   xor         revert, restarts=N, seed=S,  general XOR search (alias:
//               threads=K                    general)
//   bitselect   revert, restarts=N, seed=S,  heuristic 1-in search
//               threads=K
//   bitselect   exact | est                  exhaustive optimal bit-select
//                                            (aliases: opt, opt-est)
//
// The hill-climbing strategies take "restarts=N" (seeded random starting
// points beyond the conventional index) and "seed=S"; results stay a
// deterministic function of the spec, which campaign sharding relies on.
// "threads=K" is accepted on every search strategy for grammar
// uniformity (and for specs written when perm scanned in parallel), but
// no search reads it: every neighborhood scan runs serially on the cell's
// own thread, and the chosen function, estimates and stats are the same
// for every K. A chunked perm scan measured slower than the serial one.
// xor takes no fan-in option: the null-space search has no fan-in
// constraint, so "xor:fanin=N" is a parse error.
//
// Examples: "base", "perm:fanin=2", "perm:2", "xor:revert",
// "perm:restarts=4:seed=7", "bitselect:exact", "3c". A strategy's label
// defaults to its spec string so result tables read back the spec that
// produced each column.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.hpp"
#include "engine/campaign.hpp"

namespace xoridx::api {

struct Strategy {
  std::string spec;   ///< the grammar string this strategy came from
  std::string label;  ///< report/CSV label; defaults to `spec`
  /// Lowered engine column; filled by parse_strategy. A Strategy built
  /// by deferred() carries no config and is parsed (and validated)
  /// inside Explorer::explore.
  std::optional<engine::FunctionConfig> config;

  /// An unvalidated strategy: parsing is deferred to the consumer.
  [[nodiscard]] static Strategy deferred(std::string spec,
                                         std::string label = {});

  /// The function class of a parsed hill-climbing search strategy
  /// (perm / xor / bitselect), or nullopt for every other kind — so
  /// callers picking e.g. a hardware cost model don't have to pattern-
  /// match the internal engine payload.
  [[nodiscard]] std::optional<search::FunctionClass> function_class() const;

  /// Override the display label (chainable). The spec is unchanged.
  Strategy& relabel(std::string new_label) {
    label = std::move(new_label);
    if (config) config->label = label;
    return *this;
  }

  /// Cap the XOR fan-in of a hill-climbing search strategy (chainable).
  /// No-op on a parsed non-search strategy — mirroring the searches
  /// themselves, which ignore fan-in where it has no meaning (e.g.
  /// bit-select). On a deferred strategy the option is appended to the
  /// spec, so the eventual parse honors (or rejects) it.
  Strategy& with_fan_in(int max_fan_in);

  /// Toggle the paper's safety fallback (re-simulate, fall back to the
  /// conventional index on regression) on a hill-climbing search
  /// strategy (chainable). Non-search / deferred handling as in
  /// with_fan_in; `revert = false` on a deferred strategy is the
  /// default and records nothing.
  Strategy& with_revert(bool revert = true);
};

/// Parse one spec string against the registry. The error Status of a bad
/// spec names the offending token.
[[nodiscard]] Result<Strategy> parse_strategy(std::string_view spec);

/// The lowered engine column of a strategy: the prebuilt config when
/// parse_strategy already ran, else parse now (deferred strategies).
/// Shared by Explorer::explore and the shard planner so both lower a
/// request identically.
[[nodiscard]] Result<engine::FunctionConfig> lower_strategy(
    const Strategy& strategy);

/// Parse a comma-separated list of specs ("base,perm:2,fa"); fails on
/// the first bad token, naming it. Empty tokens (doubled or trailing
/// commas) are ignored; an entirely empty list is an error.
[[nodiscard]] Result<std::vector<Strategy>> parse_strategies(
    std::string_view comma_list);

/// One registry row, for help text and tooling.
struct StrategyInfo {
  std::string name;
  std::string options;  ///< accepted options, human-readable
  std::string summary;
};

/// Every registered strategy name (aliases excluded), stable order.
[[nodiscard]] const std::vector<StrategyInfo>& strategy_registry();

/// Compact one-line list of accepted specs for usage messages.
[[nodiscard]] std::string strategy_grammar_summary();

}  // namespace xoridx::api
