#include "exec/executor.h"

#include <algorithm>

namespace graft::exec {

StatusOr<std::vector<ma::ScoredDoc>> Executor::ExecuteRanked(
    const ma::PlanNode& plan) {
  if (plan.schema.columns.size() != 1 ||
      plan.schema.columns[0].kind != ma::Column::Kind::kScore) {
    return Status::InvalidArgument(
        "ranked execution expects a single score column, got " +
        plan.schema.ToString());
  }
  EvalEnv env(index_, scheme_, query_ctx_, overlay_, &stats_, range_);
  GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr root, BuildOperator(plan, &env));

  std::vector<ma::ScoredDoc> results;
  DocId next = 0;
  ma::Tuple row;
  while (root->AdvanceDoc(next)) {
    const DocId doc = root->doc();
    ++stats_.docs_visited;
    // A complete scoring plan emits exactly one row per document.
    if (root->NextRow(&row)) {
      results.push_back(ma::ScoredDoc{doc, row.values[0].score.a});
    }
    if (doc == kInvalidDoc - 1) break;
    next = doc + 1;
  }
  std::sort(results.begin(), results.end(), ma::RankedBefore);
  return results;
}

StatusOr<ma::MatchTable> Executor::ExecuteTable(const ma::PlanNode& plan) {
  EvalEnv env(index_, scheme_, query_ctx_, overlay_, &stats_, range_);
  GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr root, BuildOperator(plan, &env));

  ma::MatchTable table;
  table.schema = plan.schema;
  DocId next = 0;
  ma::Tuple row;
  while (root->AdvanceDoc(next)) {
    const DocId doc = root->doc();
    ++stats_.docs_visited;
    while (root->NextRow(&row)) {
      table.rows.push_back(std::move(row));
    }
    if (doc == kInvalidDoc - 1) break;
    next = doc + 1;
  }
  return table;
}

}  // namespace graft::exec
