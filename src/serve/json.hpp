// The repo's one JSON codec: the daemon's wire protocol, `trace-merge`'s
// reader, the body of the durable artifacts (shard reports, the fleet
// manifest), and the escaper behind every streamed JSON writer (metrics
// snapshots, Chrome span traces, engine rows, bench reports).
//
// The repo deliberately has no third-party dependencies, so this is a
// small, strict RFC 8259 parser/serializer: objects, arrays, strings
// (with \uXXXX escapes parsed to UTF-8), integers, doubles, booleans and
// null. Objects preserve insertion order, so serialized output is
// deterministic and diff-friendly; duplicate keys are a parse error.
// Parsing follows the Status model — malformed bytes yield an
// attributable parse_error naming the byte offset, never an exception.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/status.hpp"

namespace xoridx::serve {

class JsonValue {
 public:
  enum class Kind { null, boolean, integer, number, string, array, object };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  ///< null
  JsonValue(bool b) : kind_(Kind::boolean), bool_(b) {}        // NOLINT
  JsonValue(std::int64_t i) : kind_(Kind::integer), int_(i) {} // NOLINT
  JsonValue(std::uint64_t u)                                   // NOLINT
      : kind_(Kind::integer), int_(static_cast<std::int64_t>(u)) {}
  JsonValue(int i) : JsonValue(static_cast<std::int64_t>(i)) {}  // NOLINT
  JsonValue(double d) : kind_(Kind::number), num_(d) {}          // NOLINT
  JsonValue(std::string s)                                       // NOLINT
      : kind_(Kind::string), str_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}        // NOLINT

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::array;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::object;
    return v;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::null; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::object;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::array; }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::string;
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return kind_ == Kind::boolean;
  }
  /// Integers and doubles both count as numbers.
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::integer || kind_ == Kind::number;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  /// A double is truncated, and one outside the int64 range reads as 0
  /// (its conversion would be undefined). Non-numbers read as 0.
  [[nodiscard]] std::int64_t as_int() const noexcept {
    if (kind_ != Kind::number) return int_;
    return num_ >= -0x1p63 && num_ < 0x1p63 ? static_cast<std::int64_t>(num_)
                                            : 0;
  }
  [[nodiscard]] double as_double() const noexcept {
    return kind_ == Kind::integer ? static_cast<double>(int_) : num_;
  }
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }
  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] const std::vector<Member>& members() const noexcept {
    return members_;
  }

  /// Object member by key, or nullptr when absent / not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Object member by key, or a null value when absent / not an object.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  /// Array element by position, or a null value when out of range.
  [[nodiscard]] const JsonValue& item(std::size_t index) const;

  void push_back(JsonValue v) { items_.push_back(std::move(v)); }
  /// Append an object member (insertion order is serialization order).
  void set(std::string key, JsonValue v) {
    members_.emplace_back(std::move(key), std::move(v));
  }

  /// Compact single-line serialization (never contains a raw newline,
  /// so every value is a valid NDJSON frame).
  [[nodiscard]] std::string serialize() const;

 private:
  Kind kind_ = Kind::null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parse one complete JSON document; trailing non-whitespace (or any
/// other deviation) is a parse_error naming the byte offset.
[[nodiscard]] api::Result<JsonValue> parse_json(std::string_view text);

/// `s` as a quoted JSON string literal. Every hand-streamed JSON writer
/// quotes through this (and so does serialize()).
[[nodiscard]] std::string json_quote(std::string_view s);

}  // namespace xoridx::serve
