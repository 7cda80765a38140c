// Fagin's Threshold Algorithm (TA) as a GRAFT top-k physical operator.
//
// "Optimal Aggregation Algorithms for Middleware" (Fagin, Lotem, Naor):
// per-keyword streams sorted by column score are consumed round-robin
// (sorted access); every newly seen document is completed immediately by
// random access to the other lists; execution stops as soon as the k-th
// best exact score is at least the threshold τ = ω(⊘/⊚-fold of the last
// value seen under sorted access in each list). TA is instance-optimal
// among algorithms using sorted + random access.
//
// Relationship to TopKRankEngine (rank_join.h): both are threshold-family,
// but TopKRankEngine is the relational HRJN formulation with per-engine
// stream caching and a next-entry threshold; ThresholdTopK is the textbook
// TA with last-seen thresholds and explicit sorted/random access counters,
// selectable via SearchOptions::topk_strategy for head-to-head comparison.
//
// Score consistency: the scoring path is the exact α/⊘/⊚/⊕/ω pipeline of
// the full engine (topk_common.h), so results are bit-identical to the
// unpruned top-k; the gate below only admits (query, scheme) pairs where
// the threshold bound is sound (Table-1 rank-join/rank-union rows plus the
// ⊕-idempotence implementation constraint on stream-tail bounds).

#ifndef GRAFT_EXEC_THRESHOLD_TOPK_H_
#define GRAFT_EXEC_THRESHOLD_TOPK_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "index/stats.h"
#include "ma/match_table.h"
#include "mcalc/ast.h"
#include "sa/scoring_scheme.h"

namespace graft::exec {

// TA bookkeeping, in Fagin et al.'s access-cost model.
struct TaStats {
  uint64_t sorted_accesses = 0;    // stream entries consumed in score order
  uint64_t random_accesses = 0;    // per-list tf probes completing candidates
  uint64_t candidates_scored = 0;  // documents fully scored
  uint64_t heap_ops = 0;           // top-k inserts + evictions
  uint64_t threshold_checks = 0;   // τ evaluations (one per round)
  // sorted_accesses when the threshold stop fired (TA aggregation depth);
  // equals sorted_accesses when the streams were exhausted first.
  uint64_t stopping_depth = 0;
  uint64_t total_entries = 0;      // sum of the streams' lengths
  // Stream entries never consumed: the work the threshold stop avoided.
  uint64_t entries_pruned() const {
    return total_entries > sorted_accesses
               ? total_entries - sorted_accesses
               : 0;
  }
};

class ThresholdTopK {
 public:
  // `range` (optional) restricts the streams to one segment's documents;
  // scores still read the whole index's statistics, so per-segment top-k
  // scores match the monolithic index exactly.
  ThresholdTopK(const index::InvertedIndex* index,
                const sa::ScoringScheme* scheme,
                const index::StatsOverlay* overlay = nullptr,
                index::DocRange range = {})
      : stats_view_(index, overlay), scheme_(scheme), range_(range) {}

  // Empty string when TA is licensed for this query + scheme; otherwise
  // the human-readable EXPLAIN verdict ("blocked: ...", "blocked by
  // gate: ...").
  static std::string GateVerdict(const mcalc::Query& query,
                                 const sa::ScoringScheme& scheme);

  static bool Supports(const mcalc::Query& query,
                       const sa::ScoringScheme& scheme) {
    return GateVerdict(query, scheme).empty();
  }

  StatusOr<std::vector<ma::ScoredDoc>> TopK(const mcalc::Query& query,
                                            size_t k);

  const TaStats& stats() const { return stats_; }

 private:
  index::StatsView stats_view_;
  const sa::ScoringScheme* scheme_;
  index::DocRange range_;
  TaStats stats_;
};

}  // namespace graft::exec

#endif  // GRAFT_EXEC_THRESHOLD_TOPK_H_
