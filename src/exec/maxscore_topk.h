// The engine's one top-k operator: score-safe dynamic pruning (the
// MaxScore / block-max WAND family, adapted to the GRAFT algebra). It
// serves the paper's rank-join and rank-union (Section 5.2.1) as a
// threshold stop over per-keyword inputs — the TA stop rule — and, where
// pruning is allowed, block-max skipping on top of it.
//
// The index stores, per posting block, the inputs a *bounded* scheme needs
// to compute a score ceiling: the Pareto frontier of the block's (tf,
// document length) pairs. A bounded α is monotone ↑tf / ↓length, so every
// document in the block is dominated by some frontier point and the
// frontier's best α is the block's exact ceiling (evaluating α at the
// single (max tf, min length) point instead pairs extremes from different
// documents and is too loose to skip anything in practice). Monotone ⊘/⊚
// lift per-column ceilings to a whole-document ceiling.
//
// Two bound granularities, one loop per query shape:
//   block-max   each cursor's skip unit is its current posting block,
//               bounded by that block's ceiling; a block whose fold cannot
//               beat the k-th best score already in the heap is skipped
//               without scoring a single document;
//   term-bound  (block_max = false) each cursor's whole range is one unit,
//               bounded by the term's list-wide upper bound, so a failed
//               bound test ends the query instead of skipping a block.
//               Charges neither topk_blocks_skipped nor
//               topk_ceiling_probes.
//
// Score consistency: bounds only change WHICH documents get scored, never
// any returned score. Documents are scored by the ColumnScorer of
// exec/topk_common.h, the exact α/⊘/⊚/⊕/ω pipeline of the full engine, so
// the result is bit-identical to the full ranking's prefix in either mode
// — the differential fuzzer enforces this across every licensed scheme.
//
// The gate (Table-1 discipline, extended): α bounded, ⊕ idempotent (so ⊗
// is the identity and a ceiling is a single α evaluation), ⊘/⊚ monotonic
// increasing, diagonal scheme; plus execution-time requirements: a pure
// keyword conjunction/disjunction and no overlay that overrides a
// per-document statistic. Every built or loaded index carries the
// frontier points. No ceiling is stored: each is α evaluated at query time
// through the same StatsView that scores documents, so a collection-level
// overlay (the router's pinned N, total words, df/cf) moves ceilings and
// scores together. A per-document override (a doc length) would make a
// stored point stand for statistics no document has, so it blocks both
// modes.
//
// Conjunctions leapfrog the cursors and skip past the earliest-ending unit
// when the folded ceilings cannot beat the heap. Disjunctions use the
// MaxScore partition: terms are split into essential / non-essential by
// term-level upper bound; documents matching only non-essential terms are
// never driven, and the essential frontier also skips whole units via the
// same ceiling fold.

#ifndef GRAFT_EXEC_MAXSCORE_TOPK_H_
#define GRAFT_EXEC_MAXSCORE_TOPK_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/operators.h"
#include "index/stats.h"
#include "ma/match_table.h"
#include "mcalc/ast.h"
#include "sa/scoring_scheme.h"

namespace graft::exec {

class MaxScoreTopK {
 public:
  // `overlay` (optional) supplies collection-level statistics — the
  // router's pinned global ones — to document scores and ceilings alike;
  // TopK refuses an overlay that overrides per-document statistics (see
  // GateVerdict). `range` (optional) restricts the cursors to one
  // segment's documents; scores and ceilings read the whole index's
  // statistics, so per-segment scores match the monolithic index exactly.
  // `block_max` picks the bound granularity: per-block ceilings, or
  // list-wide term bounds only.
  MaxScoreTopK(const index::InvertedIndex* index,
               const sa::ScoringScheme* scheme,
               const index::StatsOverlay* overlay = nullptr,
               index::DocRange range = {}, bool block_max = true)
      : stats_view_(index, overlay),
        scheme_(scheme),
        range_(range),
        block_max_(block_max) {}

  // Empty string when the operator is licensed for this query + scheme +
  // overlay (in either mode); otherwise the human-readable EXPLAIN verdict
  // ("blocked by gate: ...", "blocked: stats overlay overrides ...").
  static std::string GateVerdict(const mcalc::Query& query,
                                 const sa::ScoringScheme& scheme,
                                 const index::StatsOverlay* overlay);

  static bool Supports(const mcalc::Query& query,
                       const sa::ScoringScheme& scheme,
                       const index::StatsOverlay* overlay) {
    return GateVerdict(query, scheme, overlay).empty();
  }

  StatusOr<std::vector<ma::ScoredDoc>> TopK(const mcalc::Query& query,
                                            size_t k);

  // What the last TopK did: the rank-processing and block-max pruning
  // counters of ExecStats (docs_pruned is a lower bound: a skip bypasses
  // at least one matching candidate).
  const ExecStats& stats() const { return stats_; }

 private:
  index::StatsView stats_view_;
  const sa::ScoringScheme* scheme_;
  index::DocRange range_;
  bool block_max_;
  ExecStats stats_;
};

}  // namespace graft::exec

#endif  // GRAFT_EXEC_MAXSCORE_TOPK_H_
