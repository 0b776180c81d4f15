// TraceRef: one value type naming a trace wherever it lives.
//
// A trace can live in memory (trace::Trace), in a v1/v2 file, or behind
// a streaming tracestore::TraceSource. A TraceRef names any of them:
// callers build one ref (memory / file / streaming / custom source) and
// every API operation accepts it. The one-shot operations open the ref as
// a source and hand it to the internal consumers, which take a
// tracestore::TraceInput; a sweep resolves each ref's identity() once
// and lowers the ref under it to an engine::TraceEntry. This is the one
// place that turns a trace kind into a content id, a length and a data
// handle. Refs are cheap to copy; an in-memory ref shares ownership of
// its trace.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "api/status.hpp"
#include "engine/campaign.hpp"
#include "trace/trace.hpp"
#include "tracestore/trace_id.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::api {

class TraceRef {
 public:
  enum class Kind {
    memory,         ///< an in-memory trace::Trace (shared ownership)
    file,           ///< a v1/v2 file, loaded eagerly when first needed
    streaming_file, ///< a v1/v2 file, streamed chunk by chunk (O(chunk))
    custom_source,  ///< a caller-supplied TraceSource factory
  };

  using SourceFactory =
      std::function<std::unique_ptr<tracestore::TraceSource>()>;

  /// An in-memory trace under a display name.
  [[nodiscard]] static TraceRef memory(std::string name, trace::Trace t);
  [[nodiscard]] static TraceRef memory(
      std::string name, std::shared_ptr<const trace::Trace> t);

  /// Borrow an in-memory trace without copying it. The caller must
  /// keep `t` alive for the lifetime of the ref and of anything
  /// created from it (requests, reports in flight).
  [[nodiscard]] static TraceRef borrowed(std::string name,
                                         const trace::Trace& t);

  /// A v1/v2 trace file, materialized eagerly when first consumed.
  /// The one-argument form uses the path as the display name.
  [[nodiscard]] static TraceRef file(std::string name, std::string path);
  [[nodiscard]] static TraceRef file(std::string path);

  /// A v1/v2 trace file streamed through the trace store (mmap-backed
  /// for v2): consumers never materialize it.
  [[nodiscard]] static TraceRef streaming(std::string name,
                                          std::string path);
  [[nodiscard]] static TraceRef streaming(std::string path);

  /// A streaming trace behind a caller-supplied factory (remote fetch,
  /// generators, ...). Each factory call must yield an independent
  /// source. Pass the content id if known; otherwise it is computed
  /// with one scan on first use.
  [[nodiscard]] static TraceRef source(std::string name,
                                       SourceFactory factory,
                                       tracestore::TraceId id = {});

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  /// Backing file path; empty for memory/custom-source refs.
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] bool is_streaming() const noexcept {
    return kind_ == Kind::streaming_file || kind_ == Kind::custom_source;
  }

  /// A trace's content id and length.
  struct Identity {
    tracestore::TraceId id;
    std::uint64_t accesses = 0;
  };

  /// The content id and length, without loading the trace: a memory ref
  /// hashes its trace, a file ref reads the file header (a v1 file pays
  /// one scan for the id), a custom source is opened once and scanned
  /// only when no id was given. Every error names the trace.
  [[nodiscard]] Result<Identity> identity() const;

  /// Materialize the trace (copies a memory ref's trace; loads/drains
  /// the other kinds).
  [[nodiscard]] Result<trace::Trace> load() const;

  /// Open a fresh streaming source over the trace, whatever its kind.
  [[nodiscard]] Result<std::unique_ptr<tracestore::TraceSource>> open()
      const;

  /// Lower to the engine's resolved sweep entry under `identity`, the
  /// ref's identity() its caller already resolved: a memory ref or an
  /// eager file (loaded here) becomes an in-memory entry; a streaming
  /// file or custom source becomes the identity plus an open factory.
  /// Nothing is hashed, header-read or scanned again. Every error names
  /// the trace. Internal seam used by the Explorer; stable for frontends
  /// that drive engine::Campaign directly.
  [[nodiscard]] Result<engine::TraceEntry> lower(
      const Identity& identity) const;

 private:
  TraceRef(Kind kind, std::string name) : kind_(kind), name_(std::move(name)) {}

  /// Attachment/existence checks only, no header parsing: a missing
  /// file is not_found, a missing trace or factory invalid_argument.
  [[nodiscard]] Status precheck() const;
  /// A fresh source from the custom factory; throws when it returns null.
  [[nodiscard]] std::unique_ptr<tracestore::TraceSource> open_custom() const;

  Kind kind_ = Kind::memory;
  std::string name_;
  std::shared_ptr<const trace::Trace> trace_;  ///< memory refs
  std::string path_;                           ///< file refs
  SourceFactory factory_;                      ///< custom-source refs
  tracestore::TraceId id_;                     ///< optional known id
};

}  // namespace xoridx::api
