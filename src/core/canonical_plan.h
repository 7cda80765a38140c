// Canonical score-isolated plans (Sections 2 and 4.3).
//
// The canonical plan is the optimizer's starting point and the *semantic
// definition* of the query's answers and scores (Definition 1 measures
// every optimized plan against it):
//
//   * the matching subplan uses a right-deep join tree in keyword order,
//     selections above the joins, and a sort above the selections;
//   * the scoring portion hosts α and Φ in π, ⊕ in γ_d, and ω in a final π,
//     arranged row-first or column-first per the scheme's directionality
//     (diagonal schemes default to column-first).
//
// The two scoring portions are built here, once: ColumnFirstScoring (Plan 5)
// and RowFirstScoring (Plan 6). The canonical plan calls them over the
// canonical matching subplan; the optimizer calls them over its rewritten
// matching subplan, passing the variables whose leaves it aggregated or
// counted. The only other scoring shape is the optimizer's δ_A path for
// constant schemes, one π over RowScore.

#ifndef GRAFT_CORE_CANONICAL_PLAN_H_
#define GRAFT_CORE_CANONICAL_PLAN_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/scoring_plan.h"
#include "ma/plan.h"
#include "mcalc/ast.h"
#include "sa/scoring_scheme.h"

namespace graft::core {

// The matching subplan only: joins/unions/anti-joins at the bottom, a
// single σ carrying every positional constraint above them, and τ on top.
// Produces the query's match table.
StatusOr<ma::PlanNodePtr> BuildMatchingSubplan(const mcalc::Query& query);

// As above but without the final τ: the optimizer's starting point, which
// strips the σ, re-places its constraints and adds τ back only when sort
// elimination does not apply.
StatusOr<ma::PlanNodePtr> BuildMatchingSubplanNoSort(
    const mcalc::Query& query);

struct CanonicalBuild {
  ma::PlanNodePtr plan;   // complete score-isolated plan
  PhiNodePtr phi;         // the scoring plan it hosts
  sa::Direction direction_used = sa::Direction::kColumnFirst;
};

// Plan 5, column-first over `matching`:
//   π{score:ω(Φ(s_v))} ∘ γ_d{s_v:⊕(s_v)} ∘ π{s_v:α(p_v)}.
// Variables in `aggregated` reach the scoring portion already folded into
// s_v (eager aggregation): s_v passes through and folds unweighted. A
// non-empty `count_column` passes through and weights every other column's
// fold (the count product of the aggregated leaves below).
ma::PlanNodePtr ColumnFirstScoring(
    ma::PlanNodePtr matching, const PhiNode& phi,
    const std::vector<mcalc::VarId>& vars,
    const std::set<mcalc::VarId>& aggregated = {},
    const std::string& count_column = "");

// Plan 6, row-first over `matching`:
//   π{score:ω(s)} ∘ γ_d{s:⊕(s)} ∘ π{s:RowScore}.
// Variables in `counted` reach the scoring portion as count columns c_v
// (eager counting or pre-counting): the product of their counts, cw,
// weights each row's fold.
ma::PlanNodePtr RowFirstScoring(ma::PlanNodePtr matching, const PhiNode& phi,
                                const std::vector<mcalc::VarId>& vars,
                                const std::set<mcalc::VarId>& counted = {});

// Φ over one row: α⊗(c_v) for the variables in `counted`, α(p_v) otherwise.
ma::ScoreExprPtr RowScore(const PhiNode& phi,
                          const std::set<mcalc::VarId>& counted);

StatusOr<CanonicalBuild> BuildCanonicalPlan(const mcalc::Query& query,
                                            const sa::ScoringScheme& scheme);

// The QueryContext (ω inputs) for this query.
sa::QueryContext MakeQueryContext(const mcalc::Query& query);

}  // namespace graft::core

#endif  // GRAFT_CORE_CANONICAL_PLAN_H_
