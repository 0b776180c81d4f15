// The serve episode: one client connection, open-loop NDJSON load.
//
// It starts an in-process serve::Server on 127.0.0.1:0 (2 requests in
// flight, 1 engine thread) and synthesizes the client's reference copies
// of the small-scale traces. The client then sends the seeded Poisson
// schedule of explore requests over one TCP connection, each at its due
// time whether or not earlier ones have finished, and times every request
// from when it was due. After the window every served row is checked
// byte for byte against one-shot api::Explorer runs of the same cells.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/explorer.hpp"
#include "bench.hpp"
#include "engine/report.hpp"
#include "loadgen.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace xoridx;

/// The running server plus the client's reference traces.
struct Fixture {
  std::unique_ptr<serve::Server> server;
  std::thread serve_thread;
  std::map<std::string, std::shared_ptr<const trace::Trace>> traces;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() { stop(); }

  void stop() {
    if (!server) return;
    server->request_stop();
    if (serve_thread.joinable()) serve_thread.join();
    server.reset();
  }
};

/// Every small-scale PowerStone program plus the Table-2 programs whose
/// synthesis is cheap. The server synthesizes each request's trace on the
/// connection's reader thread; the Table-2 programs whose synthesis costs
/// ~15-20 ms would make that serial step, not the engine, set the tail.
std::vector<std::string> served_workloads() {
  std::vector<std::string> names = {"fft", "jpeg_enc", "jpeg_dec",
                                    "mpeg2_dec"};
  for (const std::string& name :
       workloads::workload_names(workloads::Suite::powerstone))
    names.push_back(name);
  return names;
}

void set_up(Fixture& f, const std::vector<std::string>& names) {
  serve::ServerOptions options;
  options.listen = "127.0.0.1:0";
  options.service.max_inflight = 2;
  options.service.engine_threads = 1;
  // Bursts queue instead of being refused: at the fixed rate no request
  // should fail admission.
  options.service.queue_capacity = 256;
  f.server = std::make_unique<serve::Server>(options);
  if (const api::Status s = f.server->bind(); !s.ok())
    throw std::runtime_error("serve bind: " + s.to_string());
  f.serve_thread = std::thread([s = f.server.get()] { s->serve(); });
  for (const std::string& name : names) {
    workloads::Workload w =
        workloads::make_workload(name, workloads::Scale::small);
    f.traces[name] = std::make_shared<const trace::Trace>(std::move(w.data));
  }
}

/// What the client saw of one request.
struct Outcome {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t accepted_ns = 0;
  std::uint64_t done_ns = 0;
  bool done = false;  ///< terminated with `done` (not `error`)
  bool memo_hit = false;
  std::vector<std::string> cells;  ///< csv of done cells, by index
  std::size_t bad_cells = 0;       ///< failed or cancelled cells
};

/// Reads the event stream of the one connection and records outcomes.
class EventReader {
 public:
  EventReader(int fd, std::vector<Outcome>& outcomes)
      : fd_(fd), outcomes_(outcomes), thread_([this] { loop(); }) {}
  ~EventReader() {
    if (thread_.joinable()) thread_.join();
  }
  EventReader(const EventReader&) = delete;
  EventReader& operator=(const EventReader&) = delete;

  /// Wait until `count` requests have terminated or the deadline passes.
  bool wait_for(std::size_t count, std::chrono::steady_clock::time_point by) {
    std::unique_lock lock(mutex_);
    return cv_.wait_until(lock, by,
                          [&] { return terminated_ >= count || closed_; }) &&
           terminated_ >= count;
  }
  void join() {
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] std::uint64_t protocol_errors() const {
    std::lock_guard lock(mutex_);
    return protocol_errors_;
  }

 private:
  void loop() {
    std::string buffer;
    char chunk[65536];
    for (;;) {
      // Acknowledge at once (Linux clears quick-ack mode, so re-arm it
      // before every read): the server writes each event frame without
      // TCP_NODELAY, and a delayed ACK would hold its next frame back by
      // up to the delayed-ACK timeout, which would swamp the latencies
      // being measured.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      const std::uint64_t at = now_ns();
      buffer.append(chunk, static_cast<std::size_t>(got));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
           start = nl + 1)
        handle(buffer.substr(start, nl - start), at);
      buffer.erase(0, start);
    }
    std::lock_guard lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }

  /// "r<i>" -> i; anything else -> outcomes_.size().
  [[nodiscard]] std::size_t request_index(const std::string& id) const {
    std::size_t index = 0;
    if (id.size() < 2 || id[0] != 'r') return outcomes_.size();
    for (std::size_t k = 1; k < id.size(); ++k) {
      if (id[k] < '0' || id[k] > '9' || index > outcomes_.size())
        return outcomes_.size();
      index = index * 10 + static_cast<std::size_t>(id[k] - '0');
    }
    return index;
  }

  void handle(const std::string& line, std::uint64_t at) {
    const api::Result<serve::JsonValue> parsed = serve::parse_json(line);
    std::lock_guard lock(mutex_);
    const serve::JsonValue* id =
        parsed.ok() ? parsed->find("id") : nullptr;
    const serve::JsonValue* event =
        parsed.ok() ? parsed->find("event") : nullptr;
    const std::size_t index =
        id != nullptr && id->is_string() ? request_index(id->as_string())
                                         : outcomes_.size();
    if (event == nullptr || !event->is_string() || index >= outcomes_.size()) {
      ++protocol_errors_;
      return;
    }
    Outcome& o = outcomes_[index];
    const std::string& kind = event->as_string();
    if (kind == "accepted") {
      o.accepted_ns = at;
    } else if (kind == "cell") {
      const serve::JsonValue* i = parsed->find("index");
      const serve::JsonValue* state = parsed->find("state");
      const serve::JsonValue* csv = parsed->find("csv");
      if (i == nullptr || state == nullptr || !state->is_string() ||
          state->as_string() != "done" || csv == nullptr ||
          !csv->is_string() || i->as_int() < 0 || i->as_int() >= 64) {
        ++o.bad_cells;
        return;
      }
      const auto cell = static_cast<std::size_t>(i->as_int());
      if (o.cells.size() <= cell) o.cells.resize(cell + 1);
      o.cells[cell] = csv->as_string();
    } else if (kind == "done" || kind == "error") {
      o.done_ns = at;
      o.done = kind == "done";
      if (o.done) {
        const serve::JsonValue* memo = parsed->find("memo_hit");
        o.memo_hit = memo != nullptr && memo->is_bool() && memo->as_bool();
      }
      ++terminated_;
      cv_.notify_all();
    }
  }

  int fd_;
  std::vector<Outcome>& outcomes_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t terminated_ = 0;
  std::uint64_t protocol_errors_ = 0;
  bool closed_ = false;
  std::thread thread_;  // last: starts after every member it reads
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send failed");
    off += static_cast<std::size_t>(n);
  }
}

/// One-shot reference rows per (workload, cache): every strategy any
/// served request of that pair named, run cold through api::Explorer.
using Reference = std::map<std::pair<std::string, std::uint32_t>,
                           std::map<std::string, engine::JobResult>>;

Reference reference_rows(const std::vector<PlannedRequest>& plan,
                         const Fixture& f) {
  std::map<std::pair<std::string, std::uint32_t>, std::set<std::string>>
      specs;
  for (const PlannedRequest& r : plan)
    for (const std::string& s : r.strategies())
      specs[{r.workload, r.cache_bytes}].insert(s);
  Reference ref;
  for (const auto& [key, names] : specs) {
    api::ExplorationRequest request;
    request.traces.push_back(
        api::TraceRef::memory(key.first, f.traces.at(key.first)));
    request.geometries.emplace_back(key.second, 4u, 1u);
    for (const std::string& spec : names) {
      api::Result<api::Strategy> s = api::parse_strategy(spec);
      if (!s.ok()) throw std::runtime_error(s.status().to_string());
      request.strategies.push_back(std::move(*s));
    }
    request.num_threads = 1;
    const api::Result<api::Report> report = api::Explorer::explore(request);
    if (!report.ok())
      throw std::runtime_error("reference: " + report.status().to_string());
    for (const engine::JobResult& row : report->rows)
      ref[key][row.label] = row;
  }
  return ref;
}

double ms_between(std::uint64_t from, std::uint64_t to) {
  return to >= from ? static_cast<double>(to - from) * 1e-6 : 0.0;
}

}  // namespace

RunResult run_serve_episode(const RunOptions& options) {
  const std::vector<std::string> names = served_workloads();
  LoadSpec spec;
  spec.rate_per_s = options.serve_rate;
  spec.window_s = options.seconds;
  spec.workloads = names;
  const std::vector<PlannedRequest> plan = plan_requests(options.seed, spec);

  Fixture fixture;
  set_up(fixture, names);
  std::vector<Outcome> outcomes(plan.size());
  const int fd = connect_to(fixture.server->port());
  std::uint64_t protocol_errors = 0;
  {
    EventReader reader(fd, outcomes);
    // The reader writes only the event fields of an Outcome; the due and
    // sent times below are this thread's, read after the reader joins.
    const std::uint64_t origin = now_ns() + 20'000'000;  // 20 ms lead
    try {
      for (std::size_t i = 0; i < plan.size(); ++i) {
        std::string id = "r";
        id += std::to_string(i);
        std::string line = plan[i].command(id);
        line += '\n';
        outcomes[i].due_ns =
            origin + static_cast<std::uint64_t>(plan[i].due_s * 1e9);
        sleep_until_ns(outcomes[i].due_ns);
        outcomes[i].sent_ns = now_ns();
        send_all(fd, line);
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: serve client: " << e.what() << "\n";
    }
    if (!reader.wait_for(plan.size(), std::chrono::steady_clock::now() +
                                          std::chrono::seconds(60)))
      std::cerr << "perfbench: serve: not every request terminated\n";
    ::shutdown(fd, SHUT_RDWR);
    reader.join();
    protocol_errors = reader.protocol_errors();
  }
  ::close(fd);
  const serve::ServiceStatus status = fixture.server->service().status();
  const std::uint64_t profiles_built =
      fixture.server->service().profile_cache().misses();
  const std::uint64_t profiles_shared =
      fixture.server->service().profile_cache().hits();
  fixture.stop();

  // Correctness after the window: every served row against the one-shot
  // reference of the same cell.
  const Reference ref = reference_rows(plan, fixture);
  RunResult result;
  result.attempted = plan.size();
  std::vector<double> latency_ms, admit_ms, exec_ms, lag_ms;
  std::uint64_t memo_hits = 0, done = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Outcome& o = outcomes[i];
    const PlannedRequest& r = plan[i];
    lag_ms.push_back(ms_between(o.due_ns, o.sent_ns));
    bool ok = o.done && o.bad_cells == 0;
    if (ok) {
      std::vector<std::string> expected;
      for (const std::string& s : r.strategies())
        expected.push_back(
            engine::csv_row(ref.at({r.workload, r.cache_bytes}).at(s)));
      ok = count_row_mismatches(expected, o.cells) == 0;
    }
    if (!ok) {
      ++result.failed;
      continue;
    }
    ++done;
    if (o.memo_hit) ++memo_hits;
    latency_ms.push_back(ms_between(o.due_ns, o.done_ns));
    admit_ms.push_back(ms_between(o.sent_ns, o.accepted_ns));
    exec_ms.push_back(ms_between(o.accepted_ns, o.done_ns));
  }
  result.failed += protocol_errors;
  result.correct = result.failed == 0;
  if (result.failed != 0)
    std::cerr << "perfbench: serve: " << result.failed
              << " requests failed or mismatched\n";

  const Percentile p99 = percentile_with_floor(latency_ms, 99);
  std::cerr << "perfbench: serve: " << plan.size() << " requests, "
            << memo_hits << " memo hits, latency from due time p50 "
            << percentile_with_floor(latency_ms, 50).value << " ms, p"
            << p99.percentile << " " << p99.value << " ms over "
            << p99.samples << " samples\n";
  MetricSet& m = result.metrics;
  m.add("serve.requests", static_cast<double>(plan.size()), "count");
  m.add("serve.admit_p99_ms", percentile_with_floor(admit_ms, 99).value, "ms");
  m.add("serve.exec_p50_ms", percentile_with_floor(exec_ms, 50).value, "ms");
  m.add("serve.exec_p99_ms", percentile_with_floor(exec_ms, 99).value, "ms");
  m.add("serve.memo_hit_ratio",
        static_cast<double>(memo_hits) /
            static_cast<double>(std::max<std::uint64_t>(1, done)),
        "ratio");
  m.add("serve.rejected", static_cast<double>(status.rejected), "count");
  m.add("serve.profiles_built", static_cast<double>(profiles_built), "count");
  m.add("serve.profiles_shared", static_cast<double>(profiles_shared),
        "count");
  m.add("loadgen.lag_p99_ms", percentile_with_floor(lag_ms, 99).value, "ms");
  m.add("loadgen.offered_rps",
        static_cast<double>(plan.size()) / options.seconds, "1/s");
  return result;
}

}  // namespace perfbench
