// The score-consistent optimizer (Section 5).
//
// Starting from the canonical score-isolated plan, the optimizer applies
// the rewrite catalog of Section 5.2, consulting the optimization gate
// (Table 1) against the selected scheme's declared properties (Table 2) so
// that only score-preserving rewrites fire. The same query therefore
// optimizes into very different plans under different schemes:
//
//   AnySum           pre-counted leaves + alternate elimination (δ_A),
//                    no grouping at all (Plan-8 flavour for constants);
//   SumBest/Lucene/  eager aggregation: per-keyword ⊕ pushed below the
//   JoinNorm/Event   joins with count bookkeeping (⊗ scaling);
//   MeanSum          eager counting with row-first scoring preserved;
//   BestSumMinDist   positional and row-first: only the always-valid
//                    rewrites (join reordering, selection pushing,
//                    zig-zag joins, sort elimination) apply.
//
// Whatever fires, the plan ends in one of three scoring shapes: δ_A under
// one π (alternate elimination), or one of the canonical plan's two folds
// (canonical_plan.h), ColumnFirstScoring or RowFirstScoring, built over the
// rewritten matching subplan and told which leaves were aggregated or
// counted below it. One walker (RewriteFreeLeaves) finds the
// predicate-free leaves that each leaf rewrite replaces.
//
// Every rewrite here is differential-tested against the canonical plan's
// reference evaluation (Definition 1) in tests/core/score_consistency_test.

#ifndef GRAFT_CORE_OPTIMIZER_H_
#define GRAFT_CORE_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "core/canonical_plan.h"
#include "core/optimization_gate.h"
#include "core/rewrite_rules.h"
#include "index/inverted_index.h"
#include "ma/plan.h"
#include "mcalc/ast.h"
#include "sa/scoring_scheme.h"

namespace graft::core {

// OptimizerOptions (the per-rewrite toggles) lives in rewrite_rules.h next
// to the declarative rule catalog that binds each toggle to its rule.

// One catalog rewrite's outcome for this query + scheme: fired or not,
// and why — the gate verdict with the deciding Table-1/Table-2 property,
// an option toggle, or a structural reason (EXPLAIN's rewrite table).
struct RewriteAttempt {
  Optimization opt;
  bool fired = false;
  std::string verdict;
};

// "  ⊕ name: fired|skipped (verdict)" lines, one per attempt.
std::string FormatRewriteAttempts(const std::vector<RewriteAttempt>& attempts);

struct OptimizedPlan {
  ma::PlanNodePtr plan;  // resolved against the index
  PhiNodePtr phi;
  std::vector<Optimization> applied;
  // One entry per catalog optimization (kAllOptimizations order): the
  // complete rewrite-attempt record behind `applied`.
  std::vector<RewriteAttempt> attempts;

  std::string AppliedToString() const;
};

class Optimizer {
 public:
  Optimizer(const sa::ScoringScheme* scheme, OptimizerOptions options = {})
      : scheme_(scheme), options_(options) {}

  // Builds the optimized plan for `query`. The index supplies cost
  // estimates (posting lengths) and term resolution. When `trace` is
  // non-null, one point span per attempted rewrite is recorded.
  StatusOr<OptimizedPlan> Optimize(const mcalc::Query& query,
                                   const index::InvertedIndex& index,
                                   common::QueryTrace* trace = nullptr) const;

 private:
  const sa::ScoringScheme* scheme_;
  OptimizerOptions options_;
};

}  // namespace graft::core

#endif  // GRAFT_CORE_OPTIMIZER_H_
