// Top-k rank-join / rank-union (Section 5.2.1).
//
// For diagonal schemes with monotonically increasing ⊘ (⊚), a conjunctive
// (disjunctive) keyword query can be answered top-k without scoring every
// matching document: per-keyword document streams sorted by column score
// are consumed in score order, candidates are completed by random access
// (the zig-zag probe), and execution stops as soon as the k-th best result
// is at least the threshold computed from the streams' tail values —
// the threshold-algorithm formulation of the relational rank-join [17].
//
// Score consistency: the scores produced equal the full engine's scores
// exactly — they come from the ColumnScorer MaxScoreTopK also uses
// (exec/topk_common.h) — and only the set of documents *examined* shrinks.
// This is the operator the engine runs when the rank gate licenses the
// query but block-max pruning stands down (pruning disabled by request
// options, or a stats overlay that overrides per-document statistics).
// The router's collection-level pinned statistics do not stand pruning
// down.
// The gate conditions are those of Table 1: ⊘ (⊚) monotonic increasing and
// a diagonal scheme; additionally the query must be a pure keyword
// conjunction (disjunction) — positional predicates would require
// re-verification that rank order cannot bound.

#ifndef GRAFT_EXEC_RANK_JOIN_H_
#define GRAFT_EXEC_RANK_JOIN_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/stats.h"
#include "ma/match_table.h"
#include "mcalc/ast.h"
#include "sa/scoring_scheme.h"

namespace graft::exec {

struct RankStats {
  uint64_t entries_pulled = 0;      // sorted-stream entries consumed
  uint64_t candidates_scored = 0;   // documents fully scored
  uint64_t total_candidates = 0;    // stream entries that match at all
  uint64_t streams_built = 0;       // score-ordered streams materialized
  uint64_t heap_ops = 0;            // top-k inserts + evictions
  // Stream entries never consumed nor completed by random access: the
  // work the threshold stop avoided.
  uint64_t entries_pruned() const {
    return total_candidates > entries_pulled
               ? total_candidates - entries_pulled
               : 0;
  }
};

class TopKRankEngine {
 public:
  // `range` (optional) restricts the streams to one segment's documents;
  // scores still read the whole index's statistics, so per-segment top-k
  // scores match the monolithic index exactly.
  TopKRankEngine(const index::InvertedIndex* index,
                 const sa::ScoringScheme* scheme,
                 const index::StatsOverlay* overlay = nullptr,
                 index::DocRange range = {})
      : stats_view_(index, overlay), scheme_(scheme), range_(range) {}

  // True when the gate admits rank processing for this query + scheme:
  // pure conjunction → rank-join; pure disjunction → rank-union.
  static bool Supports(const mcalc::Query& query,
                       const sa::ScoringScheme& scheme);

  StatusOr<std::vector<ma::ScoredDoc>> TopK(const mcalc::Query& query,
                                            size_t k);

  const RankStats& stats() const { return stats_; }

 private:
  index::StatsView stats_view_;
  const sa::ScoringScheme* scheme_;
  index::DocRange range_;
  RankStats stats_;

  // Score-ordered streams are what a production system keeps as
  // impact-ordered postings; the engine caches them per term so repeated
  // queries pay only for consumption (the one-time build is counted in
  // RankStats::streams_built).
  struct CachedStream {
    std::vector<std::pair<DocId, double>> entries;  // key desc
    // O(1) random access for candidate completion (the zig-zag probe).
    std::unordered_map<DocId, uint32_t> tf;
  };
  std::unordered_map<TermId, CachedStream> stream_cache_;
};

}  // namespace graft::exec

#endif  // GRAFT_EXEC_RANK_JOIN_H_
