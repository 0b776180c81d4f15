// Fixed-size thread pool for the evaluation engine.
//
// Each worker owns a deque: submissions are distributed round-robin, a
// worker pops from the front of its own deque and, when that runs dry,
// steals from the back of the most loaded sibling. A single mutex guards
// the queues — campaign jobs are milliseconds to seconds of simulation or
// search, so queue contention is negligible and the per-worker layout
// mainly preserves locality and keeps the door open for finer-grained
// locking when job granularity shrinks (see ROADMAP: sharded sweeps).
//
// The pool has no pool-wide wait: callers wait for their own work through
// a TaskGroup, so many groups (the serving daemon's concurrent campaigns)
// share one pool without waiting on each other.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace xoridx::engine {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `num_threads` workers; 0 means default_threads().
  explicit ThreadPool(unsigned num_threads = 0);

  /// Drains nothing: outstanding tasks are completed before destruction.
  /// On glibc, then returns the heap pages the workers freed to the OS.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Thread-safe; may be called from worker threads.
  void submit(Task task);

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// All hardware threads, at least 1.
  [[nodiscard]] static unsigned default_threads() noexcept;

 private:
  /// A queued task; under XORIDX_OBS the submit time rides along so the
  /// worker can report queue latency.
  struct QueueEntry {
    Task task;
#if XORIDX_OBS_ENABLED
    std::uint64_t enqueue_ns = 0;
#endif
  };

  void worker_loop(std::size_t self);
  /// Pop from own queue front, else steal from the back of the most
  /// loaded sibling (reported via `stolen`). Caller must hold `mutex_`.
  bool pop_locked(std::size_t self, QueueEntry& out, bool& stolen);

  std::vector<std::deque<QueueEntry>> queues_;  ///< one per worker
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< signalled on submit and shutdown
  std::size_t next_queue_ = 0;       ///< round-robin submission cursor
  bool stopping_ = false;
};

/// A latch over one batch of pool work: run() counts each task, wait()
/// blocks until every counted task has finished. A task may run() more
/// tasks on its own group; wait() covers those too. With a null pool,
/// run() executes the task inline — the serial reference path.
///
/// Preconditions: tasks must not throw (an exception escaping a task on
/// a pool worker terminates the process), and wait() must not be called
/// from a worker of the same pool (it would park a worker the group's
/// own tasks may need).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) noexcept : pool_(pool) {}
  /// Waits: queued tasks may still reference the creator's frame.
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submit `task` to the pool (inline with a null pool). If submit
  /// throws, the task is not counted and the exception propagates.
  void run(ThreadPool::Task task);

  /// Block until every task run on this group has finished.
  void wait();

 private:
  /// One counted task is over: uncount it, waking wait() at zero.
  void finish();

  ThreadPool* pool_;
  std::mutex mutex_;
  std::condition_variable done_cv_;  ///< signalled when pending_ hits zero
  std::size_t pending_ = 0;          ///< counted tasks not yet finished
};

}  // namespace xoridx::engine
