#include "serve/service.hpp"

#include <exception>
#include <utility>

#include "api/internal.hpp"
#include "engine/campaign.hpp"
#include "engine/report.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace xoridx::serve {

namespace {

using api::Status;
using api::StatusCode;

}  // namespace

Service::Service(ServiceOptions options)
    : options_(options),
      profiles_(std::make_shared<engine::ProfileCache>()),
      pool_(options.engine_threads == 0
                ? engine::ThreadPool::default_threads()
                : options.engine_threads) {
  profiles_->set_byte_budget(options_.profile_cache_bytes);
  const unsigned drivers = options_.max_inflight == 0 ? 1
                                                      : options_.max_inflight;
  drivers_.reserve(drivers);
  for (unsigned i = 0; i < drivers; ++i)
    drivers_.emplace_back([this] { driver_loop(); });
}

Service::~Service() { shutdown(); }

api::Status Service::submit(std::string id, api::ExplorationRequest request,
                            RequestEvents events) {
  Status rejection;
  {
    std::lock_guard lock(mutex_);
    if (shutdown_) {
      rejection = Status(StatusCode::busy, "service is shutting down");
    } else if (active_.contains(id)) {
      rejection = Status(StatusCode::invalid_argument,
                         "request id '" + id + "' is already active");
    } else if (inflight_ + queue_.size() >=
               options_.max_inflight + options_.queue_capacity) {
      rejection =
          Status(StatusCode::busy,
                 "admission queue full (" + std::to_string(inflight_) +
                     " in flight, " + std::to_string(queue_.size()) +
                     " queued); retry later");
      ++rejected_;
      XORIDX_OBS_COUNT("serve.busy_rejections", 1);
    } else {
      PendingRequest pending;
      pending.id = id;
      pending.request = std::move(request);
      pending.request.sink = nullptr;  // results stream as events
      pending.events = std::move(events);
      pending.request.cancel = pending.cancel.token();
      active_.emplace(std::move(id), pending.cancel);
      queue_.push_back(std::move(pending));
      ++accepted_;
      XORIDX_OBS_GAUGE_ADD("serve.queued", 1);
      work_cv_.notify_one();
      return {};
    }
  }
  if (events.on_error) events.on_error(rejection);
  return rejection;
}

api::Status Service::cancel(const std::string& id) {
  std::lock_guard lock(mutex_);
  const auto it = active_.find(id);
  if (it == active_.end())
    return Status(StatusCode::not_found,
                  "no active request with id '" + id + "'");
  it->second.cancel();
  XORIDX_OBS_COUNT("serve.cancel_commands", 1);
  return {};
}

ServiceStatus Service::status() const {
  ServiceStatus s;
  {
    std::lock_guard lock(mutex_);
    s.inflight = inflight_;
    s.queued = queue_.size();
    s.accepted = accepted_;
    s.completed = completed_;
    s.rejected = rejected_;
    s.memo_hits = memo_hits_;
    s.memo_entries = memo_.size();
  }
  s.profile_cache_entries = profiles_->size();
  s.profile_cache_bytes = profiles_->bytes();
  s.profile_cache_budget = profiles_->byte_budget();
  s.profile_cache_evictions = profiles_->evictions();
  s.max_inflight = options_.max_inflight == 0 ? 1 : options_.max_inflight;
  s.queue_capacity = options_.queue_capacity;
  s.engine_threads = options_.engine_threads == 0
                         ? engine::ThreadPool::default_threads()
                         : options_.engine_threads;
  return s;
}

void Service::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (shutdown_) {
      // Already shut down (or shutting down on another thread): fall
      // through to the joins, which are idempotent via joinable().
    }
    shutdown_ = true;
    // Fire every active token: in-flight requests flush their partial
    // cancel-marked streams, queued ones error out in the drivers'
    // drain pass below.
    for (auto& [id, source] : active_) source.cancel();
    work_cv_.notify_all();
  }
  for (std::thread& t : drivers_)
    if (t.joinable()) t.join();
}

void Service::driver_loop() {
  while (true) {
    PendingRequest pending;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to drain
      pending = std::move(queue_.front());
      queue_.pop_front();
      ++inflight_;
      XORIDX_OBS_GAUGE_ADD("serve.queued", -1);
      XORIDX_OBS_GAUGE_ADD("serve.inflight", 1);
    }
    // run_request settles the accounting itself, immediately before it
    // delivers the terminal event: by the time a client sees its done
    // or error frame, status() already reflects the finished request.
    run_request(pending);
  }
}

void Service::settle(const PendingRequest& pending) {
  std::lock_guard lock(mutex_);
  --inflight_;
  ++completed_;
  XORIDX_OBS_GAUGE_ADD("serve.inflight", -1);
  active_.erase(pending.id);
}

void Service::replay(const PendingRequest& pending, const MemoEntry& entry) {
  if (pending.events.on_accepted) pending.events.on_accepted(entry.jobs);
  if (pending.events.on_cell)
    for (const CellEvent& cell : entry.cells) pending.events.on_cell(cell);
  RequestSummary summary = entry.summary;
  summary.memo_hit = true;
  summary.profiles_built = 0;
  summary.profiles_shared = 0;
  settle(pending);
  if (pending.events.on_done) pending.events.on_done(summary);
}

void Service::run_request(PendingRequest& pending) {
  XORIDX_OBS_COUNT("serve.requests", 1);
  XORIDX_SPAN_NAMED(span, "serve", "request");
  XORIDX_SPAN_DETAIL(span, pending.id);
  const engine::CancellationToken token = pending.cancel.token();

  // Cancelled (or shut down) while queued: never started, so no cell
  // stream — one terminal error instead.
  if (token.cancelled()) {
    XORIDX_OBS_COUNT("serve.cancelled_requests", 1);
    settle(pending);
    if (pending.events.on_error)
      pending.events.on_error(Status(
          StatusCode::cancelled, "request cancelled while queued"));
    return;
  }

  // Whole-request memo: a structurally identical request replays its
  // recorded stream without touching the engine. Fingerprinting can
  // fail (e.g. a vanished trace file); then the request just runs and
  // fails with proper attribution.
  shard::Fingerprint fingerprint;
  bool memoizable = false;
  if (options_.memo_capacity > 0) {
    if (api::Result<shard::Fingerprint> fp =
            shard::fingerprint_request(pending.request);
        fp.ok()) {
      fingerprint = *fp;
      memoizable = true;
      MemoEntry replay_copy;
      bool hit = false;
      {
        std::lock_guard lock(mutex_);
        if (const auto it = memo_.find(fingerprint); it != memo_.end()) {
          it->second.last_use = ++memo_clock_;
          replay_copy = it->second;
          ++memo_hits_;
          hit = true;
        }
      }
      if (hit) {
        XORIDX_OBS_COUNT("serve.memo_hits", 1);
        replay(pending, replay_copy);
        return;
      }
    }
  }

  api::Result<std::unique_ptr<engine::Campaign>> built =
      api::internal::build_campaign(pending.request, profiles_);
  if (!built.ok()) {
    settle(pending);
    if (pending.events.on_error) pending.events.on_error(built.status());
    return;
  }
  engine::Campaign& campaign = **built;

  const std::uint64_t misses_before = profiles_->misses();
  const std::uint64_t hits_before = profiles_->hits();

  if (pending.events.on_accepted)
    pending.events.on_accepted(campaign.jobs().size());

  MemoEntry record;
  record.jobs = campaign.jobs().size();
  RequestSummary summary;
  summary.cells = campaign.jobs().size();

  engine::CampaignOptions options;
  options.pool = &pool_;
  options.cancel = token;
  try {
    campaign.run_cells(
        options, [&](std::size_t index, const engine::CellOutcome& outcome) {
          CellEvent cell;
          cell.index = index;
          switch (outcome.state) {
            case engine::CellState::done:
              cell.state = CellEvent::State::done;
              cell.csv = engine::csv_row(outcome.result);
              break;
            case engine::CellState::failed:
              cell.state = CellEvent::State::failed;
              cell.error = api::internal::cell_error_status(outcome.error);
              ++summary.failed;
              break;
            case engine::CellState::cancelled:
              cell.state = CellEvent::State::cancelled;
              ++summary.cancelled;
              break;
          }
          XORIDX_OBS_COUNT("serve.cells_streamed", 1);
          if (pending.events.on_cell) pending.events.on_cell(cell);
          record.cells.push_back(std::move(cell));
        });
  } catch (const std::exception& e) {
    // run_cells reports per-cell failures through outcomes; reaching
    // here means the campaign machinery itself failed.
    settle(pending);
    if (pending.events.on_error)
      pending.events.on_error(Status(StatusCode::internal, e.what()));
    return;
  }

  summary.profiles_built = profiles_->misses() - misses_before;
  summary.profiles_shared = profiles_->hits() - hits_before;
  if (summary.cancelled > 0) XORIDX_OBS_COUNT("serve.cancelled_requests", 1);

  // Only complete, fully-successful runs are memoized: a cancelled or
  // failing run must re-run when asked again.
  if (memoizable && summary.failed == 0 && summary.cancelled == 0) {
    record.summary = summary;
    std::lock_guard lock(mutex_);
    record.last_use = ++memo_clock_;
    memo_[fingerprint] = std::move(record);
    while (memo_.size() > options_.memo_capacity) {
      auto lru = memo_.begin();
      for (auto it = memo_.begin(); it != memo_.end(); ++it)
        if (it->second.last_use < lru->second.last_use) lru = it;
      memo_.erase(lru);
    }
  }

  settle(pending);
  if (pending.events.on_done) pending.events.on_done(summary);
}

}  // namespace xoridx::serve
