#include "io/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "fail/failpoint.hpp"
#include "io/fnv.hpp"

namespace xoridx::io {

using api::Status;
using api::StatusCode;

namespace {

Status io_error(const std::string& path, const char* what, int err) {
  return Status(StatusCode::io_error,
                std::string(what) + " " + path + ": " + std::strerror(err));
}

/// Durably record a rename in `path`'s directory: fsync the parent so
/// the new directory entry survives a power cut. Failure here is
/// reported — the rename happened, but its durability did not.
Status fsync_parent(const std::string& path) {
  std::string dir;
  const std::size_t slash = path.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".")
                                   : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return io_error(dir, "cannot open directory", errno);
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return io_error(dir, "cannot fsync directory", err);
  }
  ::close(fd);
  return {};
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)),
      temp_path_(path_ + ".tmp." + std::to_string(::getpid())) {}

AtomicFileWriter::~AtomicFileWriter() { abandon(); }

Status AtomicFileWriter::open() {
  if (fd_ >= 0) return Status(StatusCode::internal, "already open: " + path_);
  int injected = XORIDX_FAILPOINT("io.atomic.open");
  if (injected == 0)
    fd_ = ::open(temp_path_.c_str(),
                 O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  else
    errno = injected;
  if (fd_ < 0) return io_error(path_, "cannot create temp file for", errno);
  offset_ = 0;
  committed_ = false;
  return {};
}

Status AtomicFileWriter::write(const void* data, std::size_t size) {
  if (fd_ < 0)
    return Status(StatusCode::internal, "write on closed writer: " + path_);
  if (int injected = XORIDX_FAILPOINT("io.atomic.write"); injected != 0) {
    Status status = io_error(path_, "write failed for", injected);
    abandon();
    return status;
  }
  const char* p = static_cast<const char*>(data);
  std::size_t left = size;
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = io_error(path_, "write failed for", errno);
      abandon();
      return status;
    }
    // A zero-byte ::write on a regular file means no progress is
    // possible (disk full without the courtesy of ENOSPC); treat it as
    // the short write it is rather than spinning.
    if (n == 0) {
      abandon();
      return Status(StatusCode::io_error,
                    "short write for " + path_ + ": device wrote 0 of " +
                        std::to_string(left) + " remaining bytes");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
    offset_ += static_cast<std::uint64_t>(n);
  }
  return {};
}

Status AtomicFileWriter::write_at(std::uint64_t offset, const void* data,
                                  std::size_t size) {
  if (fd_ < 0)
    return Status(StatusCode::internal, "write on closed writer: " + path_);
  if (int injected = XORIDX_FAILPOINT("io.atomic.write"); injected != 0) {
    Status status = io_error(path_, "write failed for", injected);
    abandon();
    return status;
  }
  const char* p = static_cast<const char*>(data);
  std::size_t left = size;
  off_t pos = static_cast<off_t>(offset);
  while (left > 0) {
    const ssize_t n = ::pwrite(fd_, p, left, pos);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = io_error(path_, "write failed for", errno);
      abandon();
      return status;
    }
    if (n == 0) {
      abandon();
      return Status(StatusCode::io_error,
                    "short write for " + path_ + ": device wrote 0 of " +
                        std::to_string(left) + " remaining bytes");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
    pos += n;
  }
  return {};
}

Status AtomicFileWriter::commit() {
  if (fd_ < 0)
    return Status(StatusCode::internal, "commit on closed writer: " + path_);
  if (int injected = XORIDX_FAILPOINT("io.atomic.fsync"); injected != 0) {
    Status status = io_error(path_, "cannot fsync", injected);
    abandon();
    return status;
  }
  if (::fsync(fd_) != 0) {
    Status status = io_error(path_, "cannot fsync", errno);
    abandon();
    return status;
  }
  if (::close(fd_) != 0) {
    const int err = errno;
    fd_ = -1;
    abandon();
    return io_error(path_, "cannot close temp file for", err);
  }
  fd_ = -1;
  if (int injected = XORIDX_FAILPOINT("io.atomic.rename"); injected != 0) {
    Status status = io_error(path_, "cannot rename temp file over", injected);
    abandon();
    return status;
  }
  if (::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    Status status = io_error(path_, "cannot rename temp file over", errno);
    abandon();
    return status;
  }
  committed_ = true;
  return fsync_parent(path_);
}

void AtomicFileWriter::abandon() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!committed_) ::unlink(temp_path_.c_str());
}

Status write_file_atomic(const std::string& path, std::string_view content) {
  AtomicFileWriter writer(path);
  if (Status status = writer.open(); !status.ok()) return status;
  if (Status status = writer.write(content); !status.ok()) return status;
  return writer.commit();
}

// ------------------------------------------------------ checksum trailer

namespace {

constexpr std::string_view trailer_tag = "\nchecksum ";

/// The trailer line for `covered`, the bytes before the word "checksum".
std::string checksum_line(std::string_view covered) {
  std::uint64_t h = fnv1a_basis;
  for (const char c : covered) h = fnv1a(h, static_cast<unsigned char>(c));
  char line[32];
  std::snprintf(line, sizeof(line), "checksum %016llx\n",
                static_cast<unsigned long long>(h));
  return line;
}

}  // namespace

std::string seal_checksum(std::string_view body) {
  std::string out(body);
  out.push_back('\n');
  out += checksum_line(out);
  return out;
}

api::Result<std::string_view> open_checksum(std::string_view data) {
  const std::size_t tag = data.rfind(trailer_tag);
  if (tag == std::string_view::npos)
    return Status(StatusCode::io_error, "missing checksum trailer");
  if (data.substr(tag + 1) != checksum_line(data.substr(0, tag + 1)))
    return Status(StatusCode::io_error,
                  "checksum mismatch (torn or corrupted write)");
  return data.substr(0, tag);
}

api::Result<std::string> read_file(const std::string& path,
                                   std::string_view what) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    return Status(StatusCode::not_found,
                  std::string(what) + " not found: " + path);
  std::string data((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  if (is.bad())
    return Status(StatusCode::io_error,
                  "cannot read " + std::string(what) + ": " + path);
  return data;
}

// ------------------------------------------------------------ AtomicOstream

bool AtomicOstream::Buf::deliver(const char* data, std::size_t n) {
  if (!first_error_.ok()) return false;
  Status status = writer_.write(data, n);
  if (!status.ok()) {
    first_error_ = std::move(status);
    return false;
  }
  return true;
}

int AtomicOstream::Buf::overflow(int ch) {
  if (ch == traits_type::eof()) return traits_type::not_eof(ch);
  const char c = static_cast<char>(ch);
  return deliver(&c, 1) ? ch : traits_type::eof();
}

std::streamsize AtomicOstream::Buf::xsputn(const char* data,
                                           std::streamsize n) {
  return deliver(data, static_cast<std::size_t>(n)) ? n : 0;
}

AtomicOstream::AtomicOstream(std::string path)
    : std::ostream(nullptr), writer_(std::move(path)), buf_(writer_) {
  rdbuf(&buf_);
}

AtomicOstream::~AtomicOstream() = default;

Status AtomicOstream::open() {
  Status status = writer_.open();
  if (!status.ok()) setstate(std::ios::badbit);
  return status;
}

Status AtomicOstream::commit() {
  flush();
  if (!buf_.first_error().ok()) return buf_.first_error();
  if (fail() && !bad())
    return Status(StatusCode::io_error,
                  "formatting failed while writing " + writer_.path());
  return writer_.commit();
}

void AtomicOstream::abandon() noexcept { writer_.abandon(); }

}  // namespace xoridx::io
