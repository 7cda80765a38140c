// GRAFT's public entry point.
//
// Typical use:
//
//   graft::index::IndexBuilder builder;
//   builder.AddDocumentStrings(graft::text::Tokenize("free software ..."));
//   graft::index::InvertedIndex index = builder.Build();
//
//   graft::core::Engine engine(&index);
//   auto result = engine.Search(
//       "(windows emulator)WINDOW[50] (foss | \"free software\")",
//       "MeanSum");
//   for (const auto& hit : result->results) { ... }
//
// The scoring scheme is a plug-in parameter: any scheme registered in
// sa::SchemeRegistry (the seven from the paper's Section 7 plus
// user-defined ones) can be named, and the optimizer adapts the plan to
// the scheme's declared properties.
//
// Execution: every query runs as one path over a list of segment views,
// each a doc range of the one index. A monolithic engine (or
// use_segmented = false) has one view, the whole range, which runs inline
// on the calling thread. Constructing the engine with a SegmentedIndex
// turns on intra-query parallelism: one view per segment range, executed
// concurrently on the engine's thread pool. Every view reads the same
// index, its collection statistics and any overlay, with global doc ids,
// so scores are bit-identical to the monolithic run. The query is parsed,
// optimized and its top-k path chosen ONCE: MaxScore (exec/maxscore_topk.h)
// when its gate licenses the query — with block-max ceilings, or with
// term bounds only when the request disables pruning — else full ranking
// + truncate. Every view runs the same resolved plan over its range. The per-view ranked streams are merged by ma::MergeRanked — a
// full sort for top_k == 0, a k-way heap merge of per-view top-k lists
// otherwise. The engine is safe to share across threads for concurrent
// Search calls (inter-query parallelism).

#ifndef GRAFT_CORE_ENGINE_H_
#define GRAFT_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/optimizer.h"
#include "exec/executor.h"
#include "index/segmented_index.h"
#include "index/stats.h"
#include "ma/match_table.h"
#include "mcalc/parser.h"

namespace graft::core {

struct SearchOptions {
  OptimizerOptions optimizer;

  // 0 = return all matching documents. > 0: return the k best; when
  // MaxScore's gate licenses the query and scheme (α bounded, ⊕
  // idempotent, ⊘/⊚ monotonic, diagonal scheme, pure keyword query, no
  // overlay that overrides per-document statistics) and
  // `allow_rank_processing`, MaxScore's threshold stop — the paper's
  // rank-join / rank-union — is used instead of scoring every document.
  size_t top_k = 0;
  bool allow_rank_processing = true;

  // Score-safe dynamic pruning (block-max top-k): MaxScore bounds each
  // posting block by its exact score ceiling and skips blocks that cannot
  // reach the k-th best result. When false, MaxScore bounds each term by
  // its list-wide upper bound only. Results are bit-identical either way.
  // Subordinate to allow_rank_processing: disabling rank processing
  // disables pruning too.
  bool allow_block_max_pruning = true;

  // Max workers for parallel segmented execution (engines constructed
  // with a SegmentedIndex): 0 = the engine's pool plus the calling
  // thread; 1 = execute segments serially on the calling thread; N caps
  // the per-query concurrency at N without resizing the shared pool.
  size_t num_threads = 0;

  // When false, an engine constructed with a SegmentedIndex executes the
  // query monolithically (segments_searched == 1) instead of fanning out.
  // Scores are identical either way; serving front ends expose this as a
  // per-request escape hatch.
  bool use_segmented = true;

  // Evaluate with the canonical score-isolated plan on the materializing
  // reference evaluator instead of the optimized streaming plan. Slow;
  // meant for oracle comparisons.
  bool use_canonical_reference = false;

  // Per-request statistics overlay (borrowed; must outlive the call).
  // When set it takes the place of the engine's constructor overlay for
  // this query only: collection-level statistics resolve against it before
  // the live index, which is how a router shard pins the distributed
  // corpus' global statistics so its scores are bit-identical to a
  // single-process run (block-max pruning stands down, exactly as with a
  // constructor overlay). Applies to every segment view alike.
  const index::StatsOverlay* stats_overlay = nullptr;

  // When non-null, the engine records spans into it: parse (on the
  // text-query entry points) → optimize (one event per attempted rewrite,
  // with the gate verdict) → execute (one child span per segment) → rank →
  // merge. Independently, whenever common::Tracer::Global() is enabled,
  // Search() traces every text query into the global ring even with
  // trace == nullptr.
  common::QueryTrace* trace = nullptr;
};

struct SearchResult {
  std::vector<ma::ScoredDoc> results;
  // The executed plan (EXPLAIN-style rendering) and the rewrites applied.
  std::string plan_text;
  std::string applied_optimizations;
  // Every catalog rewrite attempted for this query, with its gate verdict
  // (or option/structural reason) — EXPLAIN's rewrite table. Populated on
  // both the streaming and rank-processing paths; empty only for the
  // canonical-reference oracle.
  std::vector<RewriteAttempt> rewrite_attempts;
  exec::ExecStats exec_stats;
  // True when MaxScore produced the results, under either bound; false on
  // the full ranking + truncate and streaming paths.
  bool used_rank_processing = false;
  // True when MaxScore ran with block-max ceilings (implies
  // used_rank_processing). The differential fuzzer asserts this stays
  // false for schemes the gate does not license.
  bool used_block_max_pruning = false;
  // Number of index segments the query executed over (1 = monolithic).
  size_t segments_searched = 1;
};

// EXPLAIN ANALYZE's "measured operator work" block for `stats`.
std::string FormatExecStats(const exec::ExecStats& stats);

class Engine {
 public:
  explicit Engine(const index::InvertedIndex* index,
                  const index::StatsOverlay* overlay = nullptr)
      : index_(index), overlay_(overlay) {}

  // Parallel segmented engine over the doc ranges of `*segmented`, which
  // must have been built from `*index`; the engine copies the ranges, and
  // `index` must outlive it. `pool_threads` worker threads are spawned
  // eagerly (0 = hardware concurrency); the calling thread also
  // participates in each query, so per-query concurrency is
  // pool_threads + 1.
  Engine(const index::InvertedIndex* index,
         const index::SegmentedIndex* segmented, size_t pool_threads);

  // Parses the Section 8 shorthand syntax and searches.
  StatusOr<SearchResult> Search(std::string_view query_text,
                                std::string_view scheme_name,
                                const SearchOptions& options = {}) const;

  // Pre-parsed / programmatically built queries.
  StatusOr<SearchResult> SearchQuery(const mcalc::Query& query,
                                     const sa::ScoringScheme& scheme,
                                     const SearchOptions& options = {}) const;

  // Renders the optimized plan for a query + scheme without executing:
  // query, Φ, scheme, the top-k strategy SearchQuery would run (when
  // top_k > 0), the full rewrite-attempt table (every catalog
  // optimization with its gate verdict), and the physical plan with
  // cost-model estimates.
  StatusOr<std::string> Explain(std::string_view query_text,
                                std::string_view scheme_name,
                                const SearchOptions& options = {}) const;

  // Pre-parsed / programmatically built queries.
  StatusOr<std::string> ExplainQuery(const mcalc::Query& query,
                                     const sa::ScoringScheme& scheme,
                                     const SearchOptions& options = {}) const;

  // EXPLAIN ANALYZE: executes the query under a trace and renders
  // everything Explain shows, then the measured ExecStats counters
  // (FormatExecStats) and the span timeline. The measured scan line
  // carries the four names of Explain's "cost estimate:" line, so the
  // estimate and the run read side by side. The estimate is of the
  // streaming plan; when rank processing runs instead, that plan did not.
  StatusOr<std::string> ExplainAnalyze(std::string_view query_text,
                                       std::string_view scheme_name,
                                       const SearchOptions& options = {}) const;

  const index::InvertedIndex& index() const { return *index_; }
  // Null for a monolithic engine.
  const index::SegmentedIndex* segmented() const {
    return segmented_.has_value() ? &*segmented_ : nullptr;
  }

 private:
  StatusOr<const sa::ScoringScheme*> ResolveScheme(
      std::string_view name) const;

  // The per-request overlay replaces (not merges with) the engine overlay:
  // a router shard must score against exactly the pinned statistics.
  const index::StatsOverlay* EffectiveOverlay(
      const SearchOptions& options) const {
    return options.stats_overlay != nullptr ? options.stats_overlay
                                            : overlay_;
  }

  const index::InvertedIndex* index_;
  const index::StatsOverlay* overlay_ = nullptr;
  std::optional<index::SegmentedIndex> segmented_;
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace graft::core

#endif  // GRAFT_CORE_ENGINE_H_
