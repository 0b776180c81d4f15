// Crash-safe durable file output.
//
// Every artifact the system persists — shard reports, trace files, CSV
// results, metrics and span exports, the fleet manifest — goes through
// AtomicFileWriter: bytes land in `<path>.tmp.<pid>`, every write is
// checked (a short write or ENOSPC is a typed Status, never a silent
// truncation), the temp file and its parent directory are fsync'd, and
// only then is the temp renamed over the destination. A reader —
// including this process after a crash and restart — therefore sees
// either the complete old file or the complete new file, never a torn
// one; a crash before commit() leaves the destination untouched.
//
// Failpoint sites (compiled in with -DXORIDX_FAILPOINTS=ON):
//   io.atomic.open    open of the temp file
//   io.atomic.write   every write()/write_at() call
//   io.atomic.fsync   the data fsync in commit()
//   io.atomic.rename  the rename in commit() — `crash` here is the
//                     torn-commit scenario: temp written, destination
//                     still the old file
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>

#include "api/status.hpp"

namespace xoridx::io {

class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  /// Abandons (closes and unlinks the temp file) unless commit()
  /// succeeded — a writer destroyed mid-flight leaves no trace.
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Create and open the temp file. Errors name the destination path.
  [[nodiscard]] api::Status open();

  /// Append at the current offset. Every byte is accounted for: a short
  /// write is retried, and a failure (ENOSPC and friends) is a Status
  /// naming the path and the errno string.
  [[nodiscard]] api::Status write(const void* data, std::size_t size);
  [[nodiscard]] api::Status write(std::string_view text) {
    return write(text.data(), text.size());
  }

  /// Overwrite `size` bytes at an absolute offset (pwrite); the append
  /// offset is unaffected. For patching headers whose totals are only
  /// known at the end of a stream.
  [[nodiscard]] api::Status write_at(std::uint64_t offset, const void* data,
                                     std::size_t size);

  /// Bytes appended so far (the temp file's logical end).
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

  /// fsync the data, close, rename over the destination, fsync the
  /// parent directory. After ok() the destination is durably the new
  /// content; after a failure the destination is untouched and the temp
  /// file has been removed.
  [[nodiscard]] api::Status commit();

  /// Close and unlink the temp file, leaving the destination untouched.
  /// Safe to call at any point; idempotent.
  void abandon() noexcept;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& temp_path() const noexcept {
    return temp_path_;
  }
  [[nodiscard]] bool committed() const noexcept { return committed_; }

 private:
  std::string path_;
  std::string temp_path_;
  int fd_ = -1;
  std::uint64_t offset_ = 0;
  bool committed_ = false;
};

/// One-shot convenience: open + write + commit. The common case for
/// artifacts serialized to a buffer first (shard reports, manifests).
[[nodiscard]] api::Status write_file_atomic(const std::string& path,
                                            std::string_view content);

/// Checksummed artifacts (shard reports, the fleet manifest) are a body,
/// a newline, and one trailer line `checksum <16 hex digits>\n` holding
/// the FNV-1a of every byte before the word `checksum`. seal_checksum
/// appends the trailer; open_checksum verifies it and returns the body,
/// or an io_error saying whether the trailer is missing or wrong, so a
/// torn or bit-flipped artifact is rejected before any field in it is
/// believed.
[[nodiscard]] std::string seal_checksum(std::string_view body);
[[nodiscard]] api::Result<std::string_view> open_checksum(
    std::string_view data);

/// The whole file: not_found when it does not exist, io_error when it
/// cannot be read. Both messages name `what` and the path.
[[nodiscard]] api::Result<std::string> read_file(const std::string& path,
                                                 std::string_view what);

/// std::ostream facade over AtomicFileWriter, for the streaming writers
/// (CSV sinks, JSON exports) that format into an ostream. Failures set
/// badbit immediately and are latched; commit() reports the first one,
/// naming the path — so "disk full halfway through the CSV" can never
/// exit 0 with a truncated file, and the destination is only replaced
/// when every byte landed.
class AtomicOstream : public std::ostream {
 public:
  explicit AtomicOstream(std::string path);
  ~AtomicOstream() override;

  /// Open the temp file. Must be checked before streaming.
  [[nodiscard]] api::Status open();

  /// Flush, then run the writer's commit. Returns the first error seen
  /// on any earlier write if one was latched.
  [[nodiscard]] api::Status commit();

  /// Drop everything written so far; the destination is untouched.
  void abandon() noexcept;

 private:
  class Buf : public std::streambuf {
   public:
    explicit Buf(AtomicFileWriter& writer) : writer_(writer) {}
    [[nodiscard]] const api::Status& first_error() const noexcept {
      return first_error_;
    }

   protected:
    int overflow(int ch) override;
    std::streamsize xsputn(const char* data, std::streamsize n) override;

   private:
    bool deliver(const char* data, std::size_t n);
    AtomicFileWriter& writer_;
    api::Status first_error_;
  };

  AtomicFileWriter writer_;
  Buf buf_;
};

}  // namespace xoridx::io
