#include "core/request.h"

#include <memory>
#include <utility>

#include "common/failpoint.h"
#include "index/index_io.h"

namespace graft::core {

namespace {

// Covers the whole bundle-construction path (load + ranges + engine):
// the hot-reload tests arm this to prove a failed reload degrades
// gracefully instead of taking the service down.
GRAFT_DEFINE_FAILPOINT(g_fp_load_bundle, "core.load_bundle");

}  // namespace

StatusOr<ResolvedRequest> ResolveRequest(const Engine& engine,
                                         const SearchRequestParams& params) {
  if (params.query.empty()) {
    return Status::InvalidArgument("query must not be empty");
  }
  ResolvedRequest resolved;
  GRAFT_ASSIGN_OR_RETURN(resolved.query, mcalc::ParseQuery(params.query));
  resolved.scheme = sa::SchemeRegistry::Global().Lookup(params.scheme);
  if (resolved.scheme == nullptr) {
    return Status::NotFound("unknown scoring scheme: " + params.scheme);
  }
  resolved.options.top_k = params.top_k;
  resolved.options.num_threads = params.num_threads;

  const size_t engine_segments =
      engine.segmented() == nullptr ? 1 : engine.segmented()->segment_count();
  if (params.segments == 1) {
    resolved.options.use_segmented = false;
  } else if (params.segments != 0 && params.segments != engine_segments) {
    return Status::InvalidArgument(
        "segments=" + std::to_string(params.segments) +
        " does not match the engine's partitioning (" +
        std::to_string(engine_segments) +
        " segments; pass 0 for the default or 1 for monolithic)");
  }
  return resolved;
}

StatusOr<size_t> ParseCount(std::string_view text, std::string_view what) {
  if (text.empty()) {
    return Status::InvalidArgument(std::string(what) + " must not be empty");
  }
  size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(std::string(what) +
                                     " must be a non-negative integer, got '" +
                                     std::string(text) + "'");
    }
    const size_t digit = static_cast<size_t>(c - '0');
    if (value > (SIZE_MAX - digit) / 10) {
      return Status::OutOfRange(std::string(what) + " is too large: '" +
                                std::string(text) + "'");
    }
    value = value * 10 + digit;
  }
  return value;
}

namespace {

StatusOr<EngineBundle> FinishBundle(EngineBundle bundle, size_t segments,
                                    size_t pool_threads) {
  if (segments > 1) {
    GRAFT_ASSIGN_OR_RETURN(
        const index::SegmentedIndex segmented,
        index::SegmentedIndex::BuildFromMonolithic(*bundle.index, segments));
    bundle.engine = std::make_unique<Engine>(bundle.index.get(), &segmented,
                                             pool_threads);
  } else {
    bundle.engine = std::make_unique<Engine>(bundle.index.get());
  }
  return bundle;
}

}  // namespace

StatusOr<EngineBundle> LoadEngineBundle(const std::string& index_path,
                                        size_t segments, size_t pool_threads) {
  return LoadEngineBundle(index_path, segments, pool_threads,
                          BundleLoadOptions{});
}

StatusOr<EngineBundle> LoadEngineBundle(const std::string& index_path,
                                        size_t segments, size_t pool_threads,
                                        const BundleLoadOptions& load) {
  GRAFT_FAILPOINT(g_fp_load_bundle);
  EngineBundle bundle;
  if (load.mmap_index) {
    index::MappedLoadOptions mapped;
    mapped.cache = load.block_cache;
    mapped.private_cache_bytes = load.block_cache_bytes;
    GRAFT_ASSIGN_OR_RETURN(
        index::InvertedIndex loaded,
        index::LoadIndexMapped(index_path, std::move(mapped)));
    bundle.index = std::make_unique<index::InvertedIndex>(std::move(loaded));
  } else {
    GRAFT_ASSIGN_OR_RETURN(index::InvertedIndex loaded,
                           index::LoadIndex(index_path));
    bundle.index = std::make_unique<index::InvertedIndex>(std::move(loaded));
  }
  return FinishBundle(std::move(bundle), segments, pool_threads);
}

StatusOr<EngineBundle> MakeEngineBundle(index::InvertedIndex index,
                                        size_t segments, size_t pool_threads) {
  EngineBundle bundle;
  bundle.index = std::make_unique<index::InvertedIndex>(std::move(index));
  return FinishBundle(std::move(bundle), segments, pool_threads);
}

}  // namespace graft::core
