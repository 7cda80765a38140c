// The materializing reference evaluator: the semantic oracle for score
// consistency (Definition 1).
//
// Evaluates any resolved logical plan bottom-up, fully materializing every
// intermediate table. Slow by design (it eagerly materializes the match
// table, the paper's worst case), but simple enough to be obviously
// correct. Every streaming/optimized execution in this repository is
// differential-tested against it.

#ifndef GRAFT_MA_REFERENCE_EVALUATOR_H_
#define GRAFT_MA_REFERENCE_EVALUATOR_H_

#include <unordered_map>

#include "common/status.h"
#include "index/stats.h"
#include "ma/match_table.h"
#include "ma/plan.h"
#include "sa/scoring_scheme.h"

namespace graft::ma {

class ReferenceEvaluator {
 public:
  // `scheme` may be null when the plan hosts no scoring operators (a pure
  // matching subplan). `overlay` may be null.
  ReferenceEvaluator(const index::InvertedIndex* index,
                     const sa::ScoringScheme* scheme,
                     sa::QueryContext query_ctx,
                     const index::StatsOverlay* overlay = nullptr)
      : stats_(index, overlay), scheme_(scheme), query_ctx_(query_ctx) {}

  // The plan must have been resolved against the same index.
  StatusOr<MatchTable> Evaluate(const PlanNode& root) const;

 private:
  StatusOr<MatchTable> EvaluateNode(const PlanNode& node) const;

  StatusOr<MatchTable> EvaluateAtom(const PlanNode& node) const;
  StatusOr<MatchTable> EvaluatePreCount(const PlanNode& node) const;
  StatusOr<MatchTable> EvaluateJoin(const PlanNode& node) const;
  StatusOr<MatchTable> EvaluateUnion(const PlanNode& node) const;
  StatusOr<MatchTable> EvaluateSelect(const PlanNode& node) const;
  StatusOr<MatchTable> EvaluateProject(const PlanNode& node) const;
  StatusOr<MatchTable> EvaluateAntiJoin(const PlanNode& node) const;
  StatusOr<MatchTable> EvaluateGroup(const PlanNode& node) const;
  StatusOr<MatchTable> EvaluateAltElim(const PlanNode& node) const;
  StatusOr<MatchTable> EvaluateSort(const PlanNode& node) const;

  // Builds the per-document contexts used by hosted α calls.
  sa::DocContext MakeDocContext(DocId doc) const;
  std::vector<sa::ColumnContext> MakeColumnContexts(const Schema& schema,
                                                    DocId doc) const;
  // #InDoc through the term's probe cursor.
  uint32_t TermFreqInDoc(TermId term, DocId doc) const;

  Status ApplyPredicates(const std::vector<mcalc::PredicateCall>& predicates,
                         const Schema& schema, const Tuple& row,
                         bool* keep) const;

  index::StatsView stats_;
  const sa::ScoringScheme* scheme_;
  sa::QueryContext query_ctx_;
  // Per-term cursors for #InDoc lookups: plan nodes visit docs in
  // ascending order, so a forward-only cursor makes the scan amortized
  // O(1); a lookup behind the last target restarts the cursor. Mutable
  // cache only — never observable in results; evaluators are
  // single-threaded by contract.
  struct TfProbe {
    index::PostingCursor cursor;
    DocId target = 0;  // the last doc looked up
  };
  mutable std::unordered_map<TermId, TfProbe> tf_probes_;
};

}  // namespace graft::ma

#endif  // GRAFT_MA_REFERENCE_EVALUATOR_H_
