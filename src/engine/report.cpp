#include "engine/report.hpp"

#include <cstdio>

#include "serve/json.hpp"

namespace xoridx::engine {
namespace {

/// Collapse newlines so descriptions fit one CSV/JSON row.
std::string flatten(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\n') {
      if (!out.empty() && out.back() != ' ') out += "; ";
    } else if (c != '\r') {
      out += c;
    }
  }
  while (!out.empty() && (out.back() == ' ' || out.back() == ';'))
    out.pop_back();
  return out;
}

std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string format_percent(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", value);
  return buf;
}

const std::string& csv_header() {
  static const std::string header =
      "trace,cache_bytes,geometry,label,kind,accesses,baseline_misses,"
      "misses,estimated_misses,reverted,percent_removed,compulsory,"
      "capacity,conflict,function";
  return header;
}

std::string csv_row(const JobResult& r) {
  std::string out;
  const auto append = [&out](const std::string& field) {
    if (!out.empty()) out += ',';
    out += field;
  };
  append(csv_field(r.trace_name));
  append(std::to_string(r.geometry.size_bytes));
  append(csv_field(r.geometry.to_string()));
  append(csv_field(r.label));
  append(r.kind);
  append(std::to_string(r.accesses));
  append(std::to_string(r.baseline_misses));
  append(std::to_string(r.misses));
  append(std::to_string(r.estimated_misses));
  append(r.reverted ? "1" : "0");
  append(format_percent(r.percent_removed()));
  append(std::to_string(r.breakdown.compulsory));
  append(std::to_string(r.breakdown.capacity));
  append(std::to_string(r.breakdown.conflict));
  append(csv_field(flatten(r.function_description)));
  return out;
}

void CsvSink::begin() { os_ << csv_header() << '\n'; }

void CsvSink::write(const JobResult& r) {
  os_ << csv_row(r) << '\n';
  os_.flush();
}

void JsonSink::begin() {
  os_ << "[\n";
  first_ = true;
}

void JsonSink::write(const JobResult& r) {
  if (!first_) os_ << ",\n";
  first_ = false;
  os_ << "  {\"trace\":" << serve::json_quote(r.trace_name)
      << ",\"cache_bytes\":" << r.geometry.size_bytes
      << ",\"geometry\":" << serve::json_quote(r.geometry.to_string())
      << ",\"label\":" << serve::json_quote(r.label)
      << ",\"kind\":" << serve::json_quote(r.kind)
      << ",\"accesses\":" << r.accesses
      << ",\"baseline_misses\":" << r.baseline_misses
      << ",\"misses\":" << r.misses
      << ",\"estimated_misses\":" << r.estimated_misses
      << ",\"reverted\":" << (r.reverted ? "true" : "false")
      << ",\"percent_removed\":" << format_percent(r.percent_removed())
      << ",\"compulsory\":" << r.breakdown.compulsory
      << ",\"capacity\":" << r.breakdown.capacity
      << ",\"conflict\":" << r.breakdown.conflict << ",\"function\":"
      << serve::json_quote(flatten(r.function_description)) << "}";
  os_.flush();
}

void JsonSink::end() {
  os_ << "\n]\n";
  os_.flush();
}

}  // namespace xoridx::engine
