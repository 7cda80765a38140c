// Work estimation for GRAFT plans: the optimizer's one estimator.
//
// The paper optimizes with a fixed heuristic ("we expect a cost-based
// optimizer to outperform the heuristic optimization we used. Cost-based
// optimization is beyond the scope of this work."). This module estimates
// the four counters the executor reports on EXPLAIN ANALYZE's scan line,
// under the same names, so every estimate can be checked against a run:
//
//   * docs_visited and rows_built follow the textbook independence
//     assumptions: an atom matches df(t) documents with cf(t) rows; a
//     doc-join matches |D_L| · |D_R| / N documents, its row count per
//     document is the product of its inputs' (position cross product),
//     and each positional predicate keeps a fixed fraction; a union's
//     documents are bounded by the sum (capped at N);
//   * positions_scanned and count_entries_scanned are the scan volume of
//     every posting list the plan opens, read end to end: cf(t) for an A
//     scan, df(t) for a CA scan. Zig-zag skips and anti-join probes only
//     lower the measured counters, so these two are upper bounds.
//
// Both join orders are keys over an estimate of each join input: the
// paper's heuristic (fewest positions scanned first) sorts by
// positions_scanned + count_entries_scanned; the cost-based order
// (OptimizerOptions::cost_based_join_order, fewest documents first) sorts
// by docs_visited and breaks ties with the paper's key.

#ifndef GRAFT_CORE_COST_MODEL_H_
#define GRAFT_CORE_COST_MODEL_H_

#include "index/inverted_index.h"
#include "ma/plan.h"

namespace graft::core {

struct CostEstimate {
  double docs_visited = 0.0;           // documents with an output row
  double rows_built = 0.0;             // join output rows materialized
  double positions_scanned = 0.0;      // term positions read (A scans)
  double count_entries_scanned = 0.0;  // doc/tf entries read (CA scans)
  double rows = 0.0;  // output rows of the subtree's root (feeds rows_built)
};

// Fraction of rows a positional predicate is assumed to keep.
inline constexpr double kPredicateSelectivity = 0.2;

class CostModel {
 public:
  explicit CostModel(const index::InvertedIndex* index) : index_(index) {}

  // Estimates the work of a (possibly unresolved) plan subtree. Keywords
  // are resolved against the index by text.
  CostEstimate Estimate(const ma::PlanNode& node) const;

 private:
  const index::InvertedIndex* index_;
};

}  // namespace graft::core

#endif  // GRAFT_CORE_COST_MODEL_H_
