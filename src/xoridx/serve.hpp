// xoridx/serve.hpp — exploration as a service, part of the stable
// public surface (versioned by XORIDX_VERSION alongside xoridx/api.hpp).
//
// The daemon behind `xoridx serve`, importable as a library so tests,
// benches and embedding frontends can run it in-process:
//
//   Service / ServiceOptions   one shared engine serving concurrent
//                              ExplorationRequests: a cancellable
//                              campaign per request, cells interleaved on
//                              one thread pool, profiles/zeta shared
//                              through a byte-budgeted LRU ProfileCache,
//                              whole-request memoization by fingerprint,
//                              and typed-busy admission control
//   RequestEvents              per-request streaming: accepted, one
//                              event per cell in request order (done
//                              cells carry the exact CSV row bytes),
//                              then done — or a single error
//   Command / parse_command    the NDJSON wire protocol (see
//   *_event builders           serve/protocol.hpp for the line format)
//   Server / ServerOptions     the TCP transport: accept loop, one
//                              reader per connection, signal-safe
//                              request_stop() for graceful shutdown
//   JsonValue / parse_json     the dependency-free JSON these speak
#pragma once

#include "serve/json.hpp"      // IWYU pragma: export
#include "serve/protocol.hpp"  // IWYU pragma: export
#include "serve/server.hpp"    // IWYU pragma: export
#include "serve/service.hpp"   // IWYU pragma: export
