// Front-end request plumbing shared by every GRAFT entry point (the
// graft_cli tool and the src/server HTTP service), so query parsing,
// scheme selection, and engine construction cannot drift between them.
//
// A front end collects a SearchRequestParams from its native surface
// (argv flags, URL query parameters), then:
//
//   GRAFT_ASSIGN_OR_RETURN(core::EngineBundle bundle,
//                          core::LoadEngineBundle(path, segments, threads));
//   GRAFT_ASSIGN_OR_RETURN(core::ResolvedRequest resolved,
//                          core::ResolveRequest(*bundle.engine, params));
//   auto result = bundle.engine->SearchQuery(resolved.query,
//                                            *resolved.scheme,
//                                            resolved.options);
//
// All validation failures come back as Status (InvalidArgument /
// NotFound), never as crashes, so servers can map them to 4xx directly.

#ifndef GRAFT_CORE_REQUEST_H_
#define GRAFT_CORE_REQUEST_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/engine.h"
#include "index/inverted_index.h"
#include "mcalc/parser.h"
#include "sa/scoring_scheme.h"

namespace graft::core {

// Surface-independent search request: the fields a CLI flag parser and an
// HTTP query-string parser both produce.
struct SearchRequestParams {
  std::string query;
  std::string scheme = "MeanSum";
  // 0 = all matching documents.
  size_t top_k = 0;
  // Per-query worker cap (SearchOptions::num_threads semantics).
  size_t num_threads = 0;
  // Requested segment fan-out: 0 = engine default (all segments when the
  // engine is segmented), 1 = force monolithic execution. Any other value
  // must equal the engine's segment count — partitioning is fixed at
  // engine construction, so a mismatch is a client error, not a silent
  // fallback.
  size_t segments = 0;
};

// A validated request: parsed query, resolved scheme, engine options.
struct ResolvedRequest {
  mcalc::Query query;
  const sa::ScoringScheme* scheme = nullptr;
  SearchOptions options;
};

// Parses params.query, resolves params.scheme against the global registry,
// and validates params.segments against the engine's configuration.
StatusOr<ResolvedRequest> ResolveRequest(const Engine& engine,
                                         const SearchRequestParams& params);

// Parses a non-negative decimal count ("0", "17"). `what` names the field
// in the error message ("k", "--segments", ...). Rejects empty strings,
// signs, and trailing garbage — strtoul's permissiveness is exactly the
// drift this helper exists to prevent.
StatusOr<size_t> ParseCount(std::string_view text, std::string_view what);

// An engine plus the index it searches, loaded from an index file as one
// movable unit. `segments` <= 1 builds a monolithic engine; otherwise the
// engine executes over `segments` doc ranges of the one index in parallel
// with `pool_threads` eager workers (0 = hardware concurrency; the calling
// thread also participates per query). Nothing is copied per segment.
struct EngineBundle {
  std::unique_ptr<index::InvertedIndex> index;
  std::unique_ptr<Engine> engine;
};

// How LoadEngineBundle opens the index file.
struct BundleLoadOptions {
  // Map the index (v5) instead of materializing it: postings stay on disk
  // and decode through the block cache on demand. v3/v4 files load eagerly
  // regardless (they have no packed sections).
  bool mmap_index = false;
  // Decoded-block cache for mapped loads; shared across hot reloads so the
  // decoded working set stays bounded across generations. Null gets the
  // bundle a private cache of `block_cache_bytes`.
  std::shared_ptr<index::BlockCache> block_cache;
  size_t block_cache_bytes = size_t{64} << 20;
};

StatusOr<EngineBundle> LoadEngineBundle(const std::string& index_path,
                                        size_t segments, size_t pool_threads);
StatusOr<EngineBundle> LoadEngineBundle(const std::string& index_path,
                                        size_t segments, size_t pool_threads,
                                        const BundleLoadOptions& load);

// Builds a bundle around an already-built index (used by tests and the
// in-process load generator); the bundle takes ownership of `index`.
StatusOr<EngineBundle> MakeEngineBundle(index::InvertedIndex index,
                                        size_t segments, size_t pool_threads);

}  // namespace graft::core

#endif  // GRAFT_CORE_REQUEST_H_
