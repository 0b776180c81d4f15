#include "obs/export.hpp"

#include <cstdint>
#include <string_view>
#include <utility>

#include "io/atomic_file.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"

namespace xoridx::obs {
namespace {

using api::Status;
using api::StatusCode;

// ------------------------------------------------------------ OpenMetrics

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
// (`shard.cells_done`) map dots — and anything else exotic — to `_`, under
// a `xoridx_` namespace prefix.
std::string sanitize_metric_name(const std::string& name) {
  std::string out = "xoridx_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

// -------------------------------------------------------- trace stitching

/// The event with its "pid" replaced by `pid`, or with `pid` inserted
/// first when it has none.
serve::JsonValue with_pid(const serve::JsonValue& event, std::uint32_t pid) {
  const serve::JsonValue label{std::int64_t{pid}};
  serve::JsonValue out = serve::JsonValue::object();
  if (event.find("pid") == nullptr) out.set("pid", label);
  for (const auto& [key, value] : event.members())
    out.set(key, key == "pid" ? label : value);
  return out;
}

bool string_member_is(const serve::JsonValue& event, std::string_view key,
                      std::string_view value) {
  const serve::JsonValue* member = event.find(key);
  return member != nullptr && member->is_string() &&
         member->as_string() == value;
}

/// True for {"ph": "M", "name": "process_name", ...} metadata events.
bool is_process_name_meta(const serve::JsonValue& event) {
  return string_member_is(event, "ph", "M") &&
         string_member_is(event, "name", "process_name");
}

std::string file_basename(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

void Snapshot::write_openmetrics(std::ostream& os) const {
  for (const auto& [name, value] : counters) {
    const std::string n = sanitize_metric_name(name);
    os << "# TYPE " << n << " counter\n";
    os << n << "_total " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string n = sanitize_metric_name(name);
    os << "# TYPE " << n << " gauge\n";
    os << n << " " << value << "\n";
  }
  for (const auto& [name, hist] : histograms) {
    const std::string n = sanitize_metric_name(name);
    os << "# TYPE " << n << " histogram\n";
    // Log2 bucket b counts values of bit_width b, i.e. v <= 2^b - 1, so
    // the cumulative upper bounds are 0, 1, 3, 7, ... 2^30 - 1; the last
    // bucket absorbs everything wider and lands in +Inf.
    std::uint64_t cumulative = 0;
    for (std::uint32_t b = 0; b + 1 < histogram_buckets; ++b) {
      cumulative += hist.buckets[b];
      os << n << "_bucket{le=\"" << ((std::uint64_t{1} << b) - 1) << "\"} "
         << cumulative << "\n";
    }
    os << n << "_bucket{le=\"+Inf\"} " << hist.count << "\n";
    os << n << "_sum " << hist.sum << "\n";
    os << n << "_count " << hist.count << "\n";
  }
  os << "# EOF\n";
}

Status merge_chrome_traces(const std::vector<std::string>& input_paths,
                           std::ostream& os) {
  if (input_paths.empty()) {
    return Status(StatusCode::invalid_argument, "no trace files to merge");
  }
  os << "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [";
  bool first = true;
  const auto emit = [&](const serve::JsonValue& event) {
    os << (first ? "\n  " : ",\n  ") << event.serialize();
    first = false;
  };
  for (std::size_t i = 0; i < input_paths.size(); ++i) {
    const std::string& path = input_paths[i];
    const auto pid = static_cast<std::uint32_t>(i + 1);
    const api::Result<std::string> text = io::read_file(path, "trace file");
    if (!text.ok()) return text.status();
    const auto malformed = [&path](const std::string& what) {
      return Status(StatusCode::io_error,
                    "not a Chrome trace-event document (" + what + "): " +
                        path);
    };
    api::Result<serve::JsonValue> doc = serve::parse_json(*text);
    if (!doc.ok()) return malformed(doc.status().message());
    const serve::JsonValue* events = doc->find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      return malformed("no traceEvents array");
    }
    bool named = false;
    for (const serve::JsonValue& event : events->items()) {
      if (!event.is_object()) {
        return malformed("traceEvents element is not an object");
      }
      named = named || is_process_name_meta(event);
    }
    if (!named) {
      serve::JsonValue args = serve::JsonValue::object();
      args.set("name", file_basename(path));
      serve::JsonValue meta = serve::JsonValue::object();
      meta.set("name", "process_name");
      meta.set("ph", "M");
      meta.set("pid", std::int64_t{pid});
      meta.set("args", std::move(args));
      emit(meta);
    }
    for (const serve::JsonValue& event : events->items()) {
      emit(with_pid(event, pid));
    }
  }
  os << "\n ]}\n";
  return {};
}

}  // namespace xoridx::obs
