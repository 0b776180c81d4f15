// Service: exploration-as-a-service on one shared engine.
//
// The daemon's core, separated from the TCP transport so tests and
// benches drive it in-process. One Service owns:
//   - a shared engine::ThreadPool all requests' cells run on (each
//     request waits on its own engine::TaskGroup, so concurrent requests
//     never wait on each other's cells),
//   - a shared engine::ProfileCache keyed by trace content, with an LRU
//     byte budget, so concurrent requests tuning the same hot traces
//     pay for one profile/zeta build per (content, geometry, n),
//   - a whole-request memo keyed by the shard::Fingerprint of the
//     request: a repeated identical request replays its recorded event
//     stream (byte-identical rows) without touching the engine,
//   - admission control: at most max_inflight requests run, at most
//     queue_capacity more wait; past that, submit returns a typed
//     StatusCode::busy immediately,
//   - a cancellation registry: cancel(id) fires the request's token;
//     running cells finish, unstarted cells settle as cancelled, the
//     done event reports the split, and the slot frees for the next
//     request in the queue.
//
// Event callbacks fire on the request's driver thread, strictly ordered
// per request: accepted, then every cell in request order exactly once,
// then done — or a single error when the request never starts.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/explorer.hpp"
#include "api/status.hpp"
#include "engine/cancellation.hpp"
#include "engine/profile_cache.hpp"
#include "engine/thread_pool.hpp"
#include "shard/plan.hpp"

namespace xoridx::serve {

struct ServiceOptions {
  /// Requests running concurrently (each gets one driver thread; their
  /// cells interleave on the shared engine pool).
  unsigned max_inflight = 2;
  /// Requests allowed to wait beyond the in-flight ones. 0 = reject as
  /// soon as every slot is taken (the strictest admission, default).
  std::size_t queue_capacity = 0;
  /// Width of the shared engine pool (0 = one per hardware thread).
  unsigned engine_threads = 0;
  /// ProfileCache LRU byte budget (0 = unlimited). Default is generous:
  /// 512 MiB holds ~250 (trace, geometry) profiles at n = 16.
  std::size_t profile_cache_bytes = 512ull << 20;
  /// Whole-request memo entries kept (LRU). 0 disables memoization.
  std::size_t memo_capacity = 64;
};

/// One streamed cell outcome. For done cells `csv` carries exactly the
/// bytes engine::csv_row produces; for failed cells `error` names the
/// cell; cancelled cells carry neither.
struct CellEvent {
  std::size_t index = 0;
  enum class State { done, failed, cancelled };
  State state = State::done;
  std::string csv;
  api::Status error;
};

struct RequestSummary {
  std::size_t cells = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  bool memo_hit = false;
  std::uint64_t profiles_built = 0;   ///< this request, memo misses only
  std::uint64_t profiles_shared = 0;  ///< this request, memo misses only
};

struct RequestEvents {
  std::function<void(std::size_t jobs)> on_accepted;
  std::function<void(const CellEvent&)> on_cell;
  std::function<void(const RequestSummary&)> on_done;
  /// The request never produced cells: validation failure, admission
  /// rejection (busy), duplicate id, or shutdown.
  std::function<void(const api::Status&)> on_error;
};

struct ServiceStatus {
  std::size_t inflight = 0;
  std::size_t queued = 0;
  std::uint64_t accepted = 0;   ///< admitted since start
  std::uint64_t completed = 0;  ///< finished (any outcome) since start
  std::uint64_t rejected = 0;   ///< busy rejections since start
  std::uint64_t memo_hits = 0;
  std::size_t memo_entries = 0;
  std::size_t profile_cache_entries = 0;
  std::size_t profile_cache_bytes = 0;
  std::size_t profile_cache_budget = 0;
  std::uint64_t profile_cache_evictions = 0;
  unsigned max_inflight = 0;
  std::size_t queue_capacity = 0;
  unsigned engine_threads = 0;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  /// Drains like shutdown(): cancels in-flight work and joins drivers.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admit a request. Synchronous rejections (busy, duplicate active id,
  /// shutdown) are both returned AND delivered to events.on_error, so
  /// transports can treat every outcome as an event. An ok return means
  /// the request was queued; its events fire on a driver thread.
  /// `request.sink` must be null (results stream as events) and
  /// `request.cancel` is replaced by the service's per-request token.
  api::Status submit(std::string id, api::ExplorationRequest request,
                     RequestEvents events);

  /// Fire the cancellation token of an in-flight or queued request.
  /// not_found when no such id is active (finished requests forget
  /// their id — ids are reusable across time, unique while active).
  api::Status cancel(const std::string& id);

  [[nodiscard]] ServiceStatus status() const;

  /// Stop admitting, fire every active request's token, and join the
  /// driver threads: queued requests error out with `cancelled`,
  /// in-flight ones flush their partial (cancel-marked) event streams
  /// first. Idempotent.
  void shutdown();

  [[nodiscard]] engine::ProfileCache& profile_cache() noexcept {
    return *profiles_;
  }

 private:
  struct PendingRequest {
    std::string id;
    api::ExplorationRequest request;
    RequestEvents events;
    engine::CancellationSource cancel;
  };
  struct MemoEntry {
    std::size_t jobs = 0;
    std::vector<CellEvent> cells;
    RequestSummary summary;
    std::uint64_t last_use = 0;
  };
  struct FingerprintHash {
    std::size_t operator()(const shard::Fingerprint& f) const noexcept {
      return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9E3779B97F4A7C15ull));
    }
  };

  void driver_loop();
  void run_request(PendingRequest& pending);
  /// Replay a memoized stream. Caller must NOT hold mutex_.
  void replay(const PendingRequest& pending, const MemoEntry& entry);
  /// Retire the request from the in-flight accounting. Called before the
  /// terminal event is delivered, so a client that reacts to its done
  /// frame by querying status never sees stale counters.
  void settle(const PendingRequest& pending);

  const ServiceOptions options_;
  std::shared_ptr<engine::ProfileCache> profiles_;
  engine::ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<PendingRequest> queue_;
  /// Active (queued or running) request tokens by id.
  std::unordered_map<std::string, engine::CancellationSource> active_;
  std::unordered_map<shard::Fingerprint, MemoEntry, FingerprintHash> memo_;
  std::uint64_t memo_clock_ = 0;
  bool shutdown_ = false;
  std::size_t inflight_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t memo_hits_ = 0;

  std::vector<std::thread> drivers_;
};

}  // namespace xoridx::serve
