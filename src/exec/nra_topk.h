// Fagin's No-Random-Access algorithm (NRA) as a GRAFT top-k operator.
//
// "Optimal Aggregation Algorithms for Middleware" (Fagin, Lotem, Naor):
// when random access is unavailable (or priced out — e.g. remote impact-
// ordered posting shards), candidates are maintained with bound-pair
// bookkeeping instead of immediate completion. Sorted access feeds each
// candidate's per-column knowledge; a candidate's score becomes exact once
// every column is known — either seen under sorted access or implied zero
// by an exhausted stream — and unresolved candidates carry an upper bound
// assembled from the streams' last-seen values. Execution stops when the
// k-th best exact score dominates every unresolved candidate's upper bound
// and the threshold for completely unseen documents.
//
// Score consistency: exact scores come from the full engine's α/⊘/⊚/⊕/ω
// pipeline (topk_common.h); bounds only decide when to stop, never a
// returned score. On top of the Table-1 rank-join/rank-union gate and the
// ⊕-idempotence constraint shared with TA, NRA requires a *bounded* α
// (sa/properties.h): its bound pairs substitute a tail entry's internal
// score for an unknown column, which is an upper bound only when α is
// monotone and non-primary slots are invariant across one term's cells.

#ifndef GRAFT_EXEC_NRA_TOPK_H_
#define GRAFT_EXEC_NRA_TOPK_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "index/stats.h"
#include "ma/match_table.h"
#include "mcalc/ast.h"
#include "sa/scoring_scheme.h"

namespace graft::exec {

// NRA bookkeeping, in Fagin et al.'s access-cost model (no random
// accesses by construction).
struct NraStats {
  uint64_t sorted_accesses = 0;      // stream entries consumed in score order
  uint64_t candidates_tracked = 0;   // distinct documents ever buffered
  uint64_t candidates_resolved = 0;  // candidates whose score became exact
  uint64_t bound_refinements = 0;    // candidate upper-bound evaluations
  uint64_t heap_ops = 0;             // top-k inserts + evictions
  uint64_t rounds = 0;               // sorted-access rounds executed
  // sorted_accesses when the stop condition fired; equals sorted_accesses
  // when the streams were exhausted first.
  uint64_t stopping_depth = 0;
  uint64_t total_entries = 0;        // sum of the streams' lengths
  uint64_t entries_pruned() const {
    return total_entries > sorted_accesses
               ? total_entries - sorted_accesses
               : 0;
  }
};

class NraTopK {
 public:
  // `range` (optional) restricts the streams to one segment's documents;
  // scores still read the whole index's statistics, so per-segment top-k
  // scores match the monolithic index exactly.
  NraTopK(const index::InvertedIndex* index, const sa::ScoringScheme* scheme,
          const index::StatsOverlay* overlay = nullptr,
          index::DocRange range = {})
      : stats_view_(index, overlay), scheme_(scheme), range_(range) {}

  // Empty string when NRA is licensed for this query + scheme; otherwise
  // the human-readable EXPLAIN verdict.
  static std::string GateVerdict(const mcalc::Query& query,
                                 const sa::ScoringScheme& scheme);

  static bool Supports(const mcalc::Query& query,
                       const sa::ScoringScheme& scheme) {
    return GateVerdict(query, scheme).empty();
  }

  StatusOr<std::vector<ma::ScoredDoc>> TopK(const mcalc::Query& query,
                                            size_t k);

  const NraStats& stats() const { return stats_; }

 private:
  index::StatsView stats_view_;
  const sa::ScoringScheme* scheme_;
  index::DocRange range_;
  NraStats stats_;
};

}  // namespace graft::exec

#endif  // GRAFT_EXEC_NRA_TOPK_H_
