#include "tracestore/store.hpp"

#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "io/atomic_file.hpp"
#include "tracestore/writer.hpp"

namespace xoridx::tracestore {
namespace {

/// The tracestore layer reports I/O failure by exception; the atomic
/// writer reports it by Status. Bridge the two, keeping the path in the
/// message.
void check(const api::Status& status) {
  if (!status.ok()) throw std::runtime_error(std::string(status.message()));
}

/// A trace file mapped once, with the format its magic names.
struct MappedTrace {
  std::shared_ptr<const MappedFile> file;
  TraceFormat format;
};

MappedTrace map_trace(const std::string& path) {
  auto file = std::make_shared<const MappedFile>(path);
  if (file->size() >= v1_magic.size()) {
    if (std::memcmp(file->data(), v1_magic.data(), v1_magic.size()) == 0)
      return {std::move(file), TraceFormat::v1};
    if (std::memcmp(file->data(), v2_magic.data(), v2_magic.size()) == 0)
      return {std::move(file), TraceFormat::v2};
  }
  throw std::runtime_error("not a trace file (bad magic): " + path);
}

}  // namespace

TraceId save_trace_v1(const std::string& path, TraceInput t) {
  io::AtomicFileWriter out(path);
  check(out.open());
  unsigned char header[v1_header_bytes];
  std::memcpy(header, v1_magic.data(), v1_magic.size());
  store_le64(header + v1_magic.size(), t.size());
  check(out.write(header, v1_header_bytes));

  TraceIdHasher hasher;
  std::vector<unsigned char> buf;
  t.for_each_batch([&](std::span<const trace::Access> batch) {
    for (const trace::Access& a : batch) {
      unsigned char record[v1_record_bytes];
      store_le64(record, a.addr);
      record[8] = static_cast<unsigned char>(a.kind);
      buf.insert(buf.end(), record, record + v1_record_bytes);
      hasher.update(a);
      if (buf.size() >= (1u << 20)) {
        check(out.write(buf.data(), buf.size()));
        buf.clear();
      }
    }
  });
  check(out.write(buf.data(), buf.size()));
  check(out.commit());
  return hasher.digest();
}

TraceFormat detect_trace_format(const std::string& path) {
  return map_trace(path).format;
}

TraceFileInfo trace_file_info(const std::string& path) {
  MappedTrace mapped = map_trace(path);
  if (mapped.format == TraceFormat::v2)
    return MmapTraceReader(std::move(mapped.file)).info();

  V1FileSource source(std::move(mapped.file));
  TraceFileInfo info;
  info.version = 1;
  info.accesses = source.size();
  info.file_bytes = v1_header_bytes + source.size() * v1_record_bytes;
  info.id = trace_id_of(source);
  return info;
}

std::unique_ptr<TraceSource> open_trace_source(const std::string& path) {
  MappedTrace mapped = map_trace(path);
  switch (mapped.format) {
    case TraceFormat::v1:
      return std::make_unique<V1FileSource>(std::move(mapped.file));
    case TraceFormat::v2:
      return std::make_unique<MmapTraceReader>(std::move(mapped.file));
  }
  throw std::logic_error("unreachable");
}

trace::Trace load_trace_any(const std::string& path) {
  const std::unique_ptr<TraceSource> source = open_trace_source(path);
  return drain_to_trace(*source);
}

TraceId convert_trace(const std::string& in_path, const std::string& out_path,
                      TraceFormat to, std::uint32_t chunk_capacity) {
  // Refuse in-place conversion: the writer would truncate the input while
  // the reader still has it mapped (SIGBUS mid-write, trace destroyed).
  // equivalent() compares inode identity, so hardlinks and symlink
  // aliases are caught too (it only answers when the output exists).
  std::error_code ec;
  if (std::filesystem::equivalent(in_path, out_path, ec) && !ec)
    throw std::invalid_argument(
        "trace convert: input and output are the same file: " + in_path);
  const std::unique_ptr<TraceSource> source = open_trace_source(in_path);
  if (to == TraceFormat::v2)
    return save_trace_v2(out_path, *source, chunk_capacity);
  return save_trace_v1(out_path, *source);
}

}  // namespace xoridx::tracestore
