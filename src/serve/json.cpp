#include "serve/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

namespace xoridx::serve {

namespace {

using api::Result;
using api::Status;
using api::StatusCode;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> run() {
    skip_ws();
    JsonValue value;
    if (Status s = parse_value(value, 0); !s.ok()) return s;
    skip_ws();
    if (pos_ != text_.size())
      return fail("trailing characters after the JSON value");
    return value;
  }

 private:
  static constexpr int max_depth = 32;

  Status fail(const std::string& what) const {
    return Status(StatusCode::parse_error,
                  what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status parse_value(JsonValue& out, int depth) {
    if (depth > max_depth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"': {
        std::string s;
        if (Status st = parse_string(s); !st.ok()) return st;
        out = JsonValue(std::move(s));
        return {};
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out = JsonValue(true);
          return {};
        }
        return fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out = JsonValue(false);
          return {};
        }
        return fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out = JsonValue();
          return {};
        }
        return fail("invalid literal");
      default:
        return parse_number(out);
    }
  }

  Status parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out = JsonValue::object();
    skip_ws();
    if (eat('}')) return {};
    // A hash set keeps the duplicate-key check linear in the object size.
    std::unordered_set<std::string> keys;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected an object key");
      std::string key;
      if (Status st = parse_string(key); !st.ok()) return st;
      if (!keys.insert(key).second)
        return fail("duplicate object key \"" + key + "\"");
      skip_ws();
      if (!eat(':')) return fail("expected ':' after object key");
      skip_ws();
      JsonValue value;
      if (Status st = parse_value(value, depth + 1); !st.ok()) return st;
      out.set(std::move(key), std::move(value));
      skip_ws();
      if (eat('}')) return {};
      if (!eat(',')) return fail("expected ',' or '}' in object");
    }
  }

  Status parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out = JsonValue::array();
    skip_ws();
    if (eat(']')) return {};
    while (true) {
      skip_ws();
      JsonValue value;
      if (Status st = parse_value(value, depth + 1); !st.ok()) return st;
      out.push_back(std::move(value));
      skip_ws();
      if (eat(']')) return {};
      if (!eat(',')) return fail("expected ',' or ']' in array");
    }
  }

  Status parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return {};
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (Status st = parse_hex4(code); !st.ok()) return st;
          // Surrogate pair → one code point.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              return fail("unpaired UTF-16 surrogate");
            pos_ += 2;
            unsigned low = 0;
            if (Status st = parse_hex4(low); !st.ok()) return st;
            if (low < 0xDC00 || low > 0xDFFF)
              return fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          return fail("invalid escape");
      }
    }
  }

  Status parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9')
        out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        out |= static_cast<unsigned>(c - 'A' + 10);
      else
        return fail("invalid hex digit in \\u escape");
    }
    return {};
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  /// Consume one or more digits; false when there is none at pos_.
  bool eat_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    return pos_ != start;
  }

  /// RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  Status parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (eat('0')) {
      if (pos_ < text_.size() &&
          std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return fail("invalid number");  // leading zero
    } else if (!eat_digits()) {
      return fail("invalid number");
    }
    bool integral = true;
    if (eat('.')) {
      integral = false;
      if (!eat_digits()) return fail("invalid number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!eat_digits()) return fail("invalid number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    if (integral) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno != 0 || end == nullptr || *end != '\0')
        return fail("invalid number");
      out = JsonValue(static_cast<std::int64_t>(v));
    } else {
      const double v = std::strtod(token.c_str(), &end);
      if (errno != 0 || end == nullptr || *end != '\0' || !std::isfinite(v))
        return fail("invalid number");
      out = JsonValue(v);
    }
    return {};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::object) return nullptr;
  for (const Member& m : members_)
    if (m.first == key) return &m.second;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  static const JsonValue null;
  const JsonValue* v = find(key);
  return v != nullptr ? *v : null;
}

const JsonValue& JsonValue::item(std::size_t index) const {
  static const JsonValue null;
  return index < items_.size() ? items_[index] : null;
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonValue::serialize() const {
  switch (kind_) {
    case Kind::null:
      return "null";
    case Kind::boolean:
      return bool_ ? "true" : "false";
    case Kind::integer:
      return std::to_string(int_);
    case Kind::number: {
      // Shortest round-trippable form; never NaN/Inf (rejected on parse,
      // never produced by the protocol builders).
      char buf[32];
      return std::string(buf, std::to_chars(buf, buf + sizeof(buf), num_).ptr);
    }
    case Kind::string:
      return json_quote(str_);
    case Kind::array: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        out += items_[i].serialize();
      }
      out += ']';
      return out;
    }
    case Kind::object: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        out += json_quote(members_[i].first);
        out += ':';
        out += members_[i].second.serialize();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

api::Result<JsonValue> parse_json(std::string_view text) {
  return Parser(text).run();
}

}  // namespace xoridx::serve
