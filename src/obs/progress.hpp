// Periodic campaign progress lines and operator warnings.
//
// ProgressReporter samples the metrics registry from a background
// thread and prints one status line per interval to a stream (stderr by
// default): cells done/total, rate, ETA, and the profile-cache hit
// rate. It observes — the sampled counters are incremented by the
// pipeline regardless — so it can never perturb results; output goes to
// stderr precisely because stdout (CSV, reports) is a determinism
// surface.
//
// warn() prints immediately and works even when metrics are disabled or
// compiled out: operator-facing degradation notices must not vanish with
// XORIDX_OBS=OFF.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

namespace xoridx::obs {

class ProgressReporter {
 public:
  struct Options {
    std::string done_counter;   ///< registry counter holding work done
    std::string error_counter;  ///< optional; appended when non-zero
    std::uint64_t total = 0;    ///< expected final done count (0: unknown)
    std::string label = "xoridx";
    double interval_s = 1.0;
    /// Watchdog: warn when done_counter makes no progress for this many
    /// seconds (0 disables). The warning names the last activity set via
    /// set_activity() so a wedged shard says what it is stuck on.
    /// Checked once per interval, so stalls shorter than interval_s go
    /// unnoticed; re-warns after each further full stall window.
    double stall_warn_s = 0.0;
    std::FILE* stream = nullptr;  ///< nullptr means stderr
  };

  explicit ProgressReporter(Options options);
  ~ProgressReporter();
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Begin periodic reporting. No-op when metrics are compiled out
  /// (there would be nothing to sample) or already started.
  void start();

  /// Stop the sampling thread, printing one final line if any progress
  /// was ever observed. Idempotent; also called by the destructor.
  void stop();

  /// Print one immediate, thread-safe warning line:
  ///   [label] warning: <message>
  /// Independent of the registry and of start()/stop() — works in every
  /// build configuration.
  void warn(const std::string& message);

  /// Name what the pipeline is currently working on ("trace 'gcc' batch
  /// (12 cells)") for the stall watchdog's warning line. Thread-safe;
  /// cheap enough to call per cell.
  void set_activity(std::string activity);

 private:
  void run();
  void print_line(bool final_line);
  void check_stall();

  Options options_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::uint64_t start_ns_ = 0;
  std::uint64_t last_done_ = 0;  ///< whether anything was ever observed
  std::string activity_;         ///< guarded by mutex_
  std::uint64_t stall_last_done_ = 0;   ///< watchdog state (run thread only)
  std::uint64_t stall_since_ns_ = 0;
};

}  // namespace xoridx::obs
