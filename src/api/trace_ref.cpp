#include "api/trace_ref.hpp"

#include <exception>
#include <filesystem>
#include <stdexcept>

#include "api/internal.hpp"
#include "tracestore/store.hpp"

namespace xoridx::api {

namespace {

using internal::status_from_current_exception;

}  // namespace

TraceRef TraceRef::memory(std::string name, trace::Trace t) {
  return memory(std::move(name),
                std::make_shared<const trace::Trace>(std::move(t)));
}

TraceRef TraceRef::memory(std::string name,
                          std::shared_ptr<const trace::Trace> t) {
  TraceRef ref(Kind::memory, std::move(name));
  ref.trace_ = std::move(t);
  return ref;
}

TraceRef TraceRef::borrowed(std::string name, const trace::Trace& t) {
  // Aliasing, non-owning shared_ptr: shares nothing, deletes nothing.
  return memory(std::move(name),
                std::shared_ptr<const trace::Trace>(
                    std::shared_ptr<const trace::Trace>(), &t));
}

TraceRef TraceRef::file(std::string name, std::string path) {
  TraceRef ref(Kind::file, std::move(name));
  ref.path_ = std::move(path);
  return ref;
}

TraceRef TraceRef::file(std::string path) {
  std::string name = path;
  return file(std::move(name), std::move(path));
}

TraceRef TraceRef::streaming(std::string name, std::string path) {
  TraceRef ref(Kind::streaming_file, std::move(name));
  ref.path_ = std::move(path);
  return ref;
}

TraceRef TraceRef::streaming(std::string path) {
  std::string name = path;
  return streaming(std::move(name), std::move(path));
}

TraceRef TraceRef::source(std::string name, SourceFactory factory,
                          tracestore::TraceId id) {
  TraceRef ref(Kind::custom_source, std::move(name));
  ref.factory_ = std::move(factory);
  ref.id_ = id;
  return ref;
}

Status TraceRef::precheck() const {
  switch (kind_) {
    case Kind::memory:
      if (!trace_)
        return Status(StatusCode::invalid_argument,
                      "trace '" + name_ + "' has no data attached")
            .with_trace(name_);
      return {};
    case Kind::file:
    case Kind::streaming_file: {
      std::error_code ec;
      if (!std::filesystem::exists(path_, ec))
        return Status(StatusCode::not_found,
                      "trace file not found: " + path_)
            .with_trace(name_);
      return {};
    }
    case Kind::custom_source:
      if (!factory_)
        return Status(StatusCode::invalid_argument,
                      "trace '" + name_ + "' has a null source factory")
            .with_trace(name_);
      return {};
  }
  return {StatusCode::internal, "unreachable"};
}

std::unique_ptr<tracestore::TraceSource> TraceRef::open_custom() const {
  std::unique_ptr<tracestore::TraceSource> source = factory_();
  if (!source)
    throw std::runtime_error("trace '" + name_ +
                             "': source factory returned null");
  return source;
}

Result<TraceRef::Identity> TraceRef::identity() const {
  if (Status status = precheck(); !status.ok()) return status;
  try {
    switch (kind_) {
      case Kind::memory:
        return Identity{tracestore::trace_id_of(*trace_), trace_->size()};
      case Kind::file:
      case Kind::streaming_file: {
        const tracestore::TraceFileInfo info =
            tracestore::trace_file_info(path_);
        return Identity{info.id, info.accesses};
      }
      case Kind::custom_source: {
        const std::unique_ptr<tracestore::TraceSource> source = open_custom();
        // No header to read the id from: one scan, unless it was given.
        const std::uint64_t accesses = source->size();
        return Identity{id_.empty() ? tracestore::trace_id_of(*source) : id_,
                        accesses};
      }
    }
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error)
        .with_trace(name_);
  }
  return Status(StatusCode::internal, "unreachable");
}

Result<trace::Trace> TraceRef::load() const {
  if (Status status = precheck(); !status.ok()) return status;
  try {
    switch (kind_) {
      case Kind::memory:
        return trace::Trace(*trace_);
      case Kind::file:
      case Kind::streaming_file:
        return tracestore::load_trace_any(path_);
      case Kind::custom_source:
        return tracestore::drain_to_trace(*open_custom());
    }
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error)
        .with_trace(name_);
  }
  return Status(StatusCode::internal, "unreachable");
}

Result<std::unique_ptr<tracestore::TraceSource>> TraceRef::open() const {
  if (Status status = precheck(); !status.ok()) return status;
  try {
    switch (kind_) {
      case Kind::memory:
        return std::unique_ptr<tracestore::TraceSource>(
            std::make_unique<tracestore::MemorySource>(trace_));
      case Kind::file:
      case Kind::streaming_file:
        return tracestore::open_trace_source(path_);
      case Kind::custom_source:
        return open_custom();
    }
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error)
        .with_trace(name_);
  }
  return Status(StatusCode::internal, "unreachable");
}

Result<engine::TraceEntry> TraceRef::lower() const {
  if (kind_ == Kind::file) {
    // An eager file is loaded here, then resolved like an in-memory trace.
    Result<trace::Trace> loaded = load();
    if (!loaded.ok()) return loaded.status();
    return memory(name_, std::move(*loaded)).lower();
  }
  if (kind_ == Kind::memory) {
    if (Status status = precheck(); !status.ok()) return status;
    return engine::TraceEntry::in_memory(name_, trace_);
  }
  Result<Identity> resolved = identity();
  if (!resolved.ok()) return resolved.status();
  engine::TraceEntry entry;
  entry.name = name_;
  entry.id = resolved->id;
  entry.accesses = resolved->accesses;
  if (kind_ == Kind::custom_source)
    entry.open = factory_;
  else
    entry.open = [path = path_] { return tracestore::open_trace_source(path); };
  return entry;
}

}  // namespace xoridx::api
