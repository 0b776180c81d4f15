#include "engine/thread_pool.hpp"

#include <algorithm>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace xoridx::engine {

unsigned ThreadPool::default_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned n = num_threads == 0 ? default_threads() : num_threads;
  queues_.resize(n);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
#if defined(__GLIBC__)
  // glibc gives each worker its own arena and keeps what the workers
  // freed cached there, up to a trim threshold that grows after every
  // large free. How much stays resident then depends on which worker
  // freed which buffer last, so a process that runs pooled campaigns back
  // to back has a resident set that drifts from run to run. Hand the
  // exited workers' free pages back to the OS.
  ::malloc_trim(0);
#endif
}

void ThreadPool::submit(Task task) {
  QueueEntry entry{std::move(task)};
#if XORIDX_OBS_ENABLED
  entry.enqueue_ns = obs::now_ns();
#endif
  {
    std::lock_guard lock(mutex_);
    queues_[next_queue_].push_back(std::move(entry));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    XORIDX_OBS_GAUGE_ADD("engine.pool.queue_depth", 1);
  }
  work_cv_.notify_one();
}

bool ThreadPool::pop_locked(std::size_t self, QueueEntry& out,
                            bool& stolen) {
  if (!queues_[self].empty()) {
    out = std::move(queues_[self].front());
    queues_[self].pop_front();
    stolen = false;
    return true;
  }
  std::size_t victim = queues_.size();
  std::size_t victim_load = 0;
  for (std::size_t i = 0; i < queues_.size(); ++i)
    if (i != self && queues_[i].size() > victim_load) {
      victim = i;
      victim_load = queues_[i].size();
    }
  if (victim == queues_.size()) return false;
  out = std::move(queues_[victim].back());
  queues_[victim].pop_back();
  stolen = true;
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    QueueEntry entry;
    bool stolen = false;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(
          lock, [&] { return pop_locked(self, entry, stolen) || stopping_; });
      if (!entry.task) return;  // stopping, queues drained
      XORIDX_OBS_GAUGE_ADD("engine.pool.queue_depth", -1);
      if (stolen) XORIDX_OBS_COUNT("engine.pool.steals", 1);
    }
#if XORIDX_OBS_ENABLED
    const std::uint64_t run_start = obs::now_ns();
    XORIDX_OBS_HIST("engine.pool.queue_ns", run_start - entry.enqueue_ns);
#endif
    entry.task();
#if XORIDX_OBS_ENABLED
    XORIDX_OBS_HIST("engine.pool.task_ns", obs::now_ns() - run_start);
#endif
  }
}

void TaskGroup::run(ThreadPool::Task task) {
  if (pool_ == nullptr) {
    task();
    return;
  }
  {
    std::lock_guard lock(mutex_);
    ++pending_;
  }
  try {
    pool_->submit([this, task = std::move(task)] {
      task();
      finish();
    });
  } catch (...) {
    finish();
    throw;
  }
}

void TaskGroup::finish() {
  std::lock_guard lock(mutex_);
  // Notify while still holding the mutex: wait() may return and destroy
  // the group the moment it observes pending_ == 0, and it can only
  // observe that after we release the lock — an unlocked notify could
  // still be touching the condition variable at that point.
  if (--pending_ == 0) done_cv_.notify_all();
}

void TaskGroup::wait() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace xoridx::engine
