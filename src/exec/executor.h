// Plan execution driver: streams a resolved logical plan document-at-a-time
// through the physical operators and collects results.

#ifndef GRAFT_EXEC_EXECUTOR_H_
#define GRAFT_EXEC_EXECUTOR_H_

#include <vector>

#include "common/status.h"
#include "exec/operators.h"
#include "ma/match_table.h"
#include "ma/plan.h"

namespace graft::exec {

class Executor {
 public:
  // `range` (optional) restricts execution to one segment's documents;
  // scoring reads the whole index's statistics, so it matches the
  // monolithic index exactly.
  Executor(const index::InvertedIndex* index, const sa::ScoringScheme* scheme,
           sa::QueryContext query_ctx,
           const index::StatsOverlay* overlay = nullptr,
           index::DocRange range = {})
      : index_(index), scheme_(scheme), query_ctx_(query_ctx),
        overlay_(overlay), range_(range) {}

  // Executes a complete scoring plan (output schema: one finalized score
  // column) and returns results ranked by score desc, ties by doc asc.
  StatusOr<std::vector<ma::ScoredDoc>> ExecuteRanked(
      const ma::PlanNode& plan);

  // Executes any plan and materializes its full output (differential
  // testing against the reference evaluator).
  StatusOr<ma::MatchTable> ExecuteTable(const ma::PlanNode& plan);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

 private:
  // Builds the plan's operator tree and drives it document by document,
  // calling visit(root) once per document the root surfaces.
  template <typename Visit>
  Status Drive(const ma::PlanNode& plan, Visit visit);

  const index::InvertedIndex* index_;
  const sa::ScoringScheme* scheme_;
  sa::QueryContext query_ctx_;
  const index::StatsOverlay* overlay_;
  index::DocRange range_;
  ExecStats stats_;
};

}  // namespace graft::exec

#endif  // GRAFT_EXEC_EXECUTOR_H_
