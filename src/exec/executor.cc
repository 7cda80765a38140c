#include "exec/executor.h"

#include <algorithm>

namespace graft::exec {

template <typename Visit>
Status Executor::Drive(const ma::PlanNode& plan, Visit visit) {
  EvalEnv env(index_, scheme_, query_ctx_, overlay_, &stats_, range_);
  GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr root, BuildOperator(plan, &env));
  DocId next = 0;
  while (root->AdvanceDoc(next)) {
    const DocId doc = root->doc();
    ++stats_.docs_visited;
    visit(root.get());
    if (doc == kInvalidDoc - 1) break;
    next = doc + 1;
  }
  return Status::Ok();
}

StatusOr<std::vector<ma::ScoredDoc>> Executor::ExecuteRanked(
    const ma::PlanNode& plan) {
  if (plan.schema.columns.size() != 1 ||
      plan.schema.columns[0].kind != ma::Column::Kind::kScore) {
    return Status::InvalidArgument(
        "ranked execution expects a single score column, got " +
        plan.schema.ToString());
  }
  std::vector<ma::ScoredDoc> results;
  ma::Tuple row;
  GRAFT_RETURN_IF_ERROR(Drive(plan, [&](DocOperator* root) {
    // A complete scoring plan emits exactly one row per document.
    if (root->NextRow(&row)) {
      results.push_back(ma::ScoredDoc{root->doc(), row.values[0].score.a});
    }
  }));
  std::sort(results.begin(), results.end(), ma::RankedBefore);
  return results;
}

StatusOr<ma::MatchTable> Executor::ExecuteTable(const ma::PlanNode& plan) {
  ma::MatchTable table;
  table.schema = plan.schema;
  ma::Tuple row;
  GRAFT_RETURN_IF_ERROR(Drive(plan, [&](DocOperator* root) {
    while (root->NextRow(&row)) {
      table.rows.push_back(std::move(row));
    }
  }));
  return table;
}

}  // namespace graft::exec
