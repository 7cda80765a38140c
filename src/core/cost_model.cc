#include "core/cost_model.h"

#include <algorithm>

namespace graft::core {

namespace {

// Adds b's work (rows built and scan volume) into a.
void AddWork(const CostEstimate& b, CostEstimate* a) {
  a->rows_built += b.rows_built;
  a->positions_scanned += b.positions_scanned;
  a->count_entries_scanned += b.count_entries_scanned;
}

}  // namespace

CostEstimate CostModel::Estimate(const ma::PlanNode& node) const {
  const double collection =
      std::max<double>(1.0, static_cast<double>(index_->doc_count()));

  switch (node.kind) {
    case ma::OpKind::kAtom:
    case ma::OpKind::kPreCountAtom: {
      const TermId term = index_->LookupTerm(node.keyword);
      CostEstimate estimate;
      if (term == kInvalidTerm) {
        return estimate;
      }
      estimate.docs_visited = static_cast<double>(index_->DocFreq(term));
      if (node.kind == ma::OpKind::kAtom) {
        estimate.rows = static_cast<double>(index_->CollectionFreq(term));
        estimate.positions_scanned = estimate.rows;
      } else {
        estimate.rows = estimate.docs_visited;
        estimate.count_entries_scanned = estimate.rows;
      }
      return estimate;
    }
    case ma::OpKind::kJoin: {
      const CostEstimate left = Estimate(*node.children[0]);
      const CostEstimate right = Estimate(*node.children[1]);
      CostEstimate estimate;
      AddWork(left, &estimate);
      AddWork(right, &estimate);
      estimate.docs_visited =
          left.docs_visited * right.docs_visited / collection;
      const double left_rows_per_doc =
          left.docs_visited > 0 ? left.rows / left.docs_visited : 0.0;
      const double right_rows_per_doc =
          right.docs_visited > 0 ? right.rows / right.docs_visited : 0.0;
      estimate.rows =
          estimate.docs_visited * left_rows_per_doc * right_rows_per_doc;
      for (size_t i = 0; i < node.predicates.size(); ++i) {
        estimate.rows *= kPredicateSelectivity;
      }
      estimate.rows_built += estimate.rows;
      return estimate;
    }
    case ma::OpKind::kOuterUnion: {
      // A document is missed only if every branch misses it.
      CostEstimate estimate;
      double missed = 1.0;
      for (const ma::PlanNodePtr& child : node.children) {
        const CostEstimate branch = Estimate(*child);
        AddWork(branch, &estimate);
        missed *= std::max(0.0, 1.0 - branch.docs_visited / collection);
        estimate.rows += branch.rows;
      }
      estimate.docs_visited = collection * (1.0 - missed);
      return estimate;
    }
    case ma::OpKind::kSelect: {
      CostEstimate estimate = Estimate(*node.children[0]);
      for (size_t i = 0; i < node.predicates.size(); ++i) {
        estimate.rows *= kPredicateSelectivity;
      }
      // Selection may empty out some documents entirely.
      estimate.docs_visited =
          std::min(estimate.docs_visited, std::max(estimate.rows, 1.0));
      return estimate;
    }
    case ma::OpKind::kAntiJoin: {
      // The anti side is probed, never asked for rows: it adds its scan
      // volume but no rows.
      CostEstimate estimate = Estimate(*node.children[0]);
      const CostEstimate right = Estimate(*node.children[1]);
      estimate.positions_scanned += right.positions_scanned;
      estimate.count_entries_scanned += right.count_entries_scanned;
      const double keep =
          std::max(0.0, 1.0 - right.docs_visited / collection);
      estimate.docs_visited *= keep;
      estimate.rows *= keep;
      return estimate;
    }
    case ma::OpKind::kGroup:
    case ma::OpKind::kAltElim: {
      // One row per document: a group per document, or the first
      // alternate of each.
      CostEstimate estimate = Estimate(*node.children[0]);
      estimate.rows = estimate.docs_visited;
      return estimate;
    }
    case ma::OpKind::kProject:
    case ma::OpKind::kSort:
      return Estimate(*node.children[0]);
  }
  return CostEstimate();
}

}  // namespace graft::core
