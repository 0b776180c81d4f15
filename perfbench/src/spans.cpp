#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_until_ns(std::uint64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns)));
}

std::size_t Tracer::begin(const char* name, std::int64_t cell) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.cell = cell >= 0 ? cell : current_cell();
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  spans_[id].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.cell = current_cell();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::int64_t Tracer::current_cell() const {
  return open_.empty() ? -1 : spans_[open_.back()].cell;
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t lo = spans[i].start_ns;
    const std::uint64_t hi = std::max(lo, spans[i].end_ns);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t run_start = 0;
    std::uint64_t run_end = 0;
    bool in_run = false;
    for (auto [a, b] : kids) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a) continue;
      if (in_run && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::string_view layer_of(std::string_view span_name) {
  return span_name.substr(0, span_name.find('.'));
}

SelfTimeTable tabulate(const std::vector<Span>& spans) {
  SelfTimeTable table;
  const std::vector<std::uint64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    table.by_name[name] += self[i];
    table.by_layer[std::string(layer_of(name))] += self[i];
    table.total_ns += self[i];
  }
  return table;
}

namespace {
double seconds_at(const std::map<std::string, std::uint64_t>& m,
                  const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : static_cast<double>(it->second) * 1e-9;
}
}  // namespace

double SelfTimeTable::name_s(const std::string& name) const {
  return seconds_at(by_name, name);
}

double SelfTimeTable::layer_s(const std::string& layer) const {
  return seconds_at(by_layer, layer);
}

void print_table(std::ostream& os, const std::string& title,
                 const SelfTimeTable& table) {
  std::vector<std::pair<std::uint64_t, std::string>> rows;
  for (const auto& [layer, ns] : table.by_layer) rows.emplace_back(ns, layer);
  std::sort(rows.rbegin(), rows.rend());
  char line[160];
  os << "where the time goes: " << title << " (self time per layer)\n";
  std::snprintf(line, sizeof(line), "  %-12s %12s %8s\n", "layer", "self s",
                "share");
  os << line;
  const double total = static_cast<double>(std::max<std::uint64_t>(
      table.total_ns, 1));
  for (const auto& [ns, layer] : rows) {
    std::snprintf(line, sizeof(line), "  %-12s %12.4f %7.2f%%\n",
                  layer.c_str(), static_cast<double>(ns) * 1e-9,
                  100.0 * static_cast<double>(ns) / total);
    os << line;
  }
  std::snprintf(line, sizeof(line), "  %-12s %12.4f %7.2f%%\n", "total",
                static_cast<double>(table.total_ns) * 1e-9, 100.0);
  os << line;
}

void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans) {
  std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"cell\":%lld}}%s\n",
                  s.name, static_cast<int>(layer_of(s.name).size()), s.name,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.cell),
                  i + 1 == spans.size() ? "" : ",");
    os << line;
  }
  os << "]}\n";
}

}  // namespace perfbench
