#include "core/optimizer.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "core/cost_model.h"

namespace graft::core {

namespace {

using ma::OpKind;
using ma::PlanNode;
using ma::PlanNodePtr;
using mcalc::VarId;

// ---------------------------------------------------------------------
// Join reordering (always score-consistent: the match table, not the join
// order, defines scoring; Section 5.2.1).
// ---------------------------------------------------------------------

// Flattens a maximal join tree into its non-join leaves, recursing into
// each leaf so nested join regions (e.g. inside union branches) reorder
// too.
void FlattenJoins(PlanNodePtr node, std::vector<PlanNodePtr>* leaves,
                  std::vector<mcalc::PredicateCall>* residuals) {
  if (node->kind == OpKind::kJoin) {
    for (mcalc::PredicateCall& call : node->predicates) {
      residuals->push_back(std::move(call));
    }
    FlattenJoins(std::move(node->children[0]), leaves, residuals);
    FlattenJoins(std::move(node->children[1]), leaves, residuals);
    return;
  }
  leaves->push_back(std::move(node));
}

PlanNodePtr ReorderJoins(PlanNodePtr node,
                         const index::InvertedIndex& index,
                         bool cost_based) {
  // Recurse into non-join structure first.
  if (node->kind != OpKind::kJoin) {
    for (PlanNodePtr& child : node->children) {
      child = ReorderJoins(std::move(child), index, cost_based);
    }
    return node;
  }
  std::vector<PlanNodePtr> leaves;
  std::vector<mcalc::PredicateCall> residuals;
  FlattenJoins(std::move(node), &leaves, &residuals);
  for (PlanNodePtr& leaf : leaves) {
    leaf = ReorderJoins(std::move(leaf), index, cost_based);
  }
  // Both orders are keys over each input's CostModel estimate. The
  // paper's heuristic: fewest positions scanned first (A and CA scan
  // volume). The cost-based order: most selective input (fewest estimated
  // documents) outermost, which under the independence assumption is the
  // greedy smallest-intermediate order; the paper's key breaks its ties.
  // The index in each key keeps equal keys in their original order.
  const CostModel model(&index);
  std::vector<std::tuple<double, double, size_t>> keys;
  for (size_t i = 0; i < leaves.size(); ++i) {
    const CostEstimate estimate = model.Estimate(*leaves[i]);
    const double scanned =
        estimate.positions_scanned + estimate.count_entries_scanned;
    keys.emplace_back(cost_based ? estimate.docs_visited : scanned, scanned,
                      i);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<PlanNodePtr> ordered;
  ordered.reserve(leaves.size());
  for (const auto& [key, tie_break, i] : keys) {
    ordered.push_back(std::move(leaves[i]));
  }
  PlanNodePtr acc;
  for (auto it = ordered.rbegin(); it != ordered.rend(); ++it) {
    acc = acc == nullptr ? std::move(*it)
                         : ma::MakeJoin(std::move(*it), std::move(acc));
  }
  if (!residuals.empty()) {
    // Residual predicates reattach above the rebuilt region; selection
    // pushing then re-sinks them.
    acc = ma::MakeSelect(std::move(acc), std::move(residuals));
  }
  return acc;
}

// ---------------------------------------------------------------------
// Selection pushing (always score-consistent in GRAFT; Section 5.2.1).
// ---------------------------------------------------------------------

void CollectVars(const PlanNode& node, std::set<VarId>* vars) {
  if (node.kind == OpKind::kAtom) {
    vars->insert(node.var);
  }
  // The anti side of ▷ binds no output variables.
  const size_t limit =
      node.kind == OpKind::kAntiJoin ? 1 : node.children.size();
  for (size_t i = 0; i < limit; ++i) {
    CollectVars(*node.children[i], vars);
  }
}

bool Covers(const std::set<VarId>& vars, const mcalc::PredicateCall& call) {
  for (const VarId var : call.vars) {
    if (vars.count(var) == 0) return false;
  }
  return true;
}

// Removes every kSelect in the tree, accumulating predicates.
PlanNodePtr StripSelects(PlanNodePtr node,
                         std::vector<mcalc::PredicateCall>* predicates) {
  for (PlanNodePtr& child : node->children) {
    child = StripSelects(std::move(child), predicates);
  }
  if (node->kind == OpKind::kSelect) {
    for (mcalc::PredicateCall& call : node->predicates) {
      predicates->push_back(std::move(call));
    }
    return std::move(node->children[0]);
  }
  if (node->kind == OpKind::kJoin) {
    for (mcalc::PredicateCall& call : node->predicates) {
      predicates->push_back(std::move(call));
    }
    node->predicates.clear();
  }
  return node;
}

// Sinks one predicate to the deepest node whose variables cover it.
PlanNodePtr PlacePredicate(PlanNodePtr node, mcalc::PredicateCall call) {
  switch (node->kind) {
    case OpKind::kJoin: {
      std::set<VarId> left_vars;
      std::set<VarId> right_vars;
      CollectVars(*node->children[0], &left_vars);
      CollectVars(*node->children[1], &right_vars);
      if (Covers(left_vars, call)) {
        node->children[0] =
            PlacePredicate(std::move(node->children[0]), std::move(call));
        return node;
      }
      if (Covers(right_vars, call)) {
        node->children[1] =
            PlacePredicate(std::move(node->children[1]), std::move(call));
        return node;
      }
      // Spans both sides: becomes a join residual (evaluated during the
      // join, i.e. "selection pushed into the join").
      node->predicates.push_back(std::move(call));
      return node;
    }
    case OpKind::kOuterUnion: {
      for (PlanNodePtr& branch : node->children) {
        std::set<VarId> branch_vars;
        CollectVars(*branch, &branch_vars);
        if (Covers(branch_vars, call)) {
          branch = PlacePredicate(std::move(branch), std::move(call));
          return node;
        }
      }
      // Spans branches (or references variables that are ∅ in every
      // branch): stays above the union.
      return ma::MakeSelect(std::move(node), {std::move(call)});
    }
    case OpKind::kAntiJoin: {
      std::set<VarId> left_vars;
      CollectVars(*node->children[0], &left_vars);
      if (Covers(left_vars, call)) {
        node->children[0] =
            PlacePredicate(std::move(node->children[0]), std::move(call));
        return node;
      }
      return ma::MakeSelect(std::move(node), {std::move(call)});
    }
    case OpKind::kSelect: {
      node->predicates.push_back(std::move(call));
      return node;
    }
    default:
      return ma::MakeSelect(std::move(node), {std::move(call)});
  }
}

// ---------------------------------------------------------------------
// Leaf strategies.
// ---------------------------------------------------------------------

// Calls `leaf` on every atom no predicate references, except on the anti
// side of ▷ (which binds no output variables) and, when `outside_unions`
// is set, under ⊎; each rewritten atom's variable joins `rewritten`.
template <typename Leaf>
PlanNodePtr RewriteFreeLeaves(PlanNodePtr node,
                              const std::set<VarId>& predicate_vars,
                              bool outside_unions, const Leaf& leaf,
                              std::set<VarId>* rewritten,
                              bool in_union = false, bool in_anti = false) {
  if (node->kind == OpKind::kAtom) {
    if (predicate_vars.count(node->var) == 0 && !in_anti &&
        !(outside_unions && in_union)) {
      rewritten->insert(node->var);
      return leaf(std::move(node));
    }
    return node;
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    node->children[i] = RewriteFreeLeaves(
        std::move(node->children[i]), predicate_vars, outside_unions, leaf,
        rewritten, in_union || node->kind == OpKind::kOuterUnion,
        in_anti || (node->kind == OpKind::kAntiJoin && i == 1));
  }
  return node;
}

// Counted leaf (Paths A and C): CA(k) when pre-counting is valid, otherwise
// γ_{d|c:COUNT}(π_d(A(k))) (classical eager counting; physically a position
// scan that only emits counts). Valid inside unions too: padded counts
// encode ∅ as 0.
PlanNodePtr CountedLeaf(PlanNodePtr atom, bool pre_count) {
  const std::string count = ma::CountColumn(atom->var);
  if (pre_count) {
    return ma::MakePreCountAtom(atom->keyword, count);
  }
  ma::GroupSpec spec;
  spec.count_output = count;
  spec.count_keyword = atom->keyword;
  PlanNodePtr projected =
      ma::MakeProject(std::move(atom), std::vector<ma::ProjectItem>{});
  return ma::MakeGroup(std::move(projected), std::move(spec));
}

// Aggregated leaf (Path B, outside unions): carries (s_v, c_v), the
// column's ⊕-fold and its row count. With pre-counting:
// π{s_v := α⊗(c_v) ⊗ c_v, c_v}(CA(k)); otherwise:
// γ_{d | s_v:⊕(s_v), c_v:COUNT}(π{s_v:α(p_v)}(A(k))).
PlanNodePtr AggregatedLeaf(PlanNodePtr atom, bool pre_count) {
  const VarId var = atom->var;
  const std::string score = ma::ScoreColumn(var);
  const std::string count = ma::CountColumn(var);
  if (pre_count) {
    PlanNodePtr ca = ma::MakePreCountAtom(atom->keyword, count);
    std::vector<ma::ProjectItem> items;
    items.push_back(ma::ProjectItem::Scored(
        score, ma::ScoreExpr::ScaleByCount(
                   ma::ScoreExpr::InitFromCount(count), count)));
    items.push_back(ma::ProjectItem::Passthrough(count));
    return ma::MakeProject(std::move(ca), std::move(items));
  }
  std::vector<ma::ProjectItem> alpha;
  alpha.push_back(ma::ProjectItem::Scored(
      score, ma::ScoreExpr::InitPos(ma::PosColumn(var))));
  PlanNodePtr projected = ma::MakeProject(std::move(atom), std::move(alpha));
  ma::GroupSpec spec;
  spec.score_aggs.push_back({score, score, ""});
  spec.count_output = count;
  return ma::MakeGroup(std::move(projected), std::move(spec));
}

// Result of the join-scaling pass: which count column and score columns a
// subtree carries.
struct CarryInfo {
  std::string count_col;  // empty if none
  std::vector<std::string> score_cols;
};

// Path B join bookkeeping: whenever both join inputs carry counts, wrap a
// π that cross-scales each side's column scores by the partner's count (a
// column's ⊕-fold must absorb the multiplicity the join introduces) and
// multiplies the counts — the eager-aggregation arithmetic of Yan & Larson
// adapted to ⊕/⊗. Position columns of the variables not in `aggregated`
// pass through the π.
CarryInfo ScaleAtJoins(PlanNodePtr* node_ref,
                       const std::set<VarId>& aggregated,
                       int* next_join_count) {
  PlanNode* node = node_ref->get();
  switch (node->kind) {
    case OpKind::kJoin: {
      CarryInfo left =
          ScaleAtJoins(&node->children[0], aggregated, next_join_count);
      CarryInfo right =
          ScaleAtJoins(&node->children[1], aggregated, next_join_count);
      CarryInfo merged;
      merged.score_cols = left.score_cols;
      merged.score_cols.insert(merged.score_cols.end(),
                               right.score_cols.begin(),
                               right.score_cols.end());
      if (left.count_col.empty() || right.count_col.empty()) {
        merged.count_col =
            !left.count_col.empty() ? left.count_col : right.count_col;
        return merged;
      }
      std::vector<ma::ProjectItem> items;
      std::set<VarId> vars;
      CollectVars(*node, &vars);
      for (const VarId var : vars) {
        if (aggregated.count(var) == 0) {
          items.push_back(ma::ProjectItem::Passthrough(ma::PosColumn(var)));
        }
      }
      for (const std::string& s : left.score_cols) {
        items.push_back(ma::ProjectItem::Scored(
            s, ma::ScoreExpr::ScaleByCount(ma::ScoreExpr::ColRef(s),
                                           right.count_col)));
      }
      for (const std::string& s : right.score_cols) {
        items.push_back(ma::ProjectItem::Scored(
            s, ma::ScoreExpr::ScaleByCount(ma::ScoreExpr::ColRef(s),
                                           left.count_col)));
      }
      merged.count_col = ma::JoinCountColumn((*next_join_count)++);
      items.push_back(ma::ProjectItem::CountProduct(
          merged.count_col, {left.count_col, right.count_col}));
      *node_ref = ma::MakeProject(std::move(*node_ref), std::move(items));
      return merged;
    }
    case OpKind::kAntiJoin:  // only the left side carries state
    case OpKind::kSelect:
      return ScaleAtJoins(&node->children[0], aggregated, next_join_count);
    case OpKind::kPreCountAtom: {
      CarryInfo info;
      info.count_col = node->output_column;
      return info;
    }
    case OpKind::kProject: {
      // Aggregated pre-count leaf (π over CA) or a previously inserted
      // scaling π: its scores, and its count product or CA's count.
      const PlanNode& child = *node->children[0];
      CarryInfo info;
      for (const ma::ProjectItem& item : node->items) {
        if (item.expr != nullptr) {
          info.score_cols.push_back(item.name);
        } else if (!item.count_product.empty() ||
                   (child.kind == OpKind::kPreCountAtom &&
                    item.source == child.output_column)) {
          info.count_col = item.name;
        }
      }
      return info;
    }
    case OpKind::kGroup: {
      CarryInfo info;
      for (const ma::GroupSpec::ScoreAgg& agg : node->group.score_aggs) {
        info.score_cols.push_back(agg.output);
      }
      info.count_col = node->group.count_output;
      return info;
    }
    default:
      return CarryInfo();
  }
}

bool HasDisjunction(const mcalc::Node& node) {
  if (node.kind == mcalc::NodeKind::kOr) return true;
  for (const mcalc::NodePtr& child : node.children) {
    if (HasDisjunction(*child)) return true;
  }
  return false;
}

}  // namespace

std::string OptimizedPlan::AppliedToString() const {
  std::string out;
  for (size_t i = 0; i < applied.size(); ++i) {
    if (i > 0) out += ", ";
    out += OptimizationName(applied[i]);
  }
  return out;
}

std::string FormatRewriteAttempts(
    const std::vector<RewriteAttempt>& attempts) {
  std::string out;
  for (const RewriteAttempt& attempt : attempts) {
    out += "  ";
    out += OptimizationName(attempt.opt);
    out += attempt.fired ? ": fired (" : ": skipped (";
    out += attempt.verdict;
    out += ")\n";
  }
  return out;
}

StatusOr<OptimizedPlan> Optimizer::Optimize(
    const mcalc::Query& query, const index::InvertedIndex& index,
    common::QueryTrace* trace) const {
  const sa::SchemeProperties& props = scheme_->properties();
  OptimizedPlan result;
  GRAFT_ASSIGN_OR_RETURN(result.phi, DeriveScoringPlan(query));

  // 1. Boolean structure without σ/τ (constraints collected).
  GRAFT_ASSIGN_OR_RETURN(ma::PlanNodePtr tree,
                         BuildMatchingSubplanNoSort(query));
  std::vector<mcalc::PredicateCall> predicates;
  tree = StripSelects(std::move(tree), &predicates);

  // 2. Join reordering (always valid: the gate has no requirements).
  if (options_.reorder_joins &&
      IsOptimizationValid(Optimization::kJoinReordering, props)) {
    tree = ReorderJoins(std::move(tree), index,
                        options_.cost_based_join_order);
    // Reordering may have re-attached residuals as selects; restrip.
    tree = StripSelects(std::move(tree), &predicates);
    result.applied.push_back(Optimization::kJoinReordering);
  }

  // 3. Selection pushing.
  if (options_.push_selections &&
      IsOptimizationValid(Optimization::kSelectionPushing, props) &&
      !predicates.empty()) {
    for (mcalc::PredicateCall& call : predicates) {
      tree = PlacePredicate(std::move(tree), std::move(call));
    }
    predicates.clear();
    result.applied.push_back(Optimization::kSelectionPushing);
  } else if (!predicates.empty()) {
    tree = ma::MakeSelect(std::move(tree), std::move(predicates));
    predicates.clear();
  }

  // 4. Sort elimination. If ⊕ does not commute, the canonical τ must stay
  // and the grouped paths below (which fold in stream order) are skipped.
  const bool sort_eliminated =
      options_.eliminate_sort &&
      IsOptimizationValid(Optimization::kSortElimination, props);
  if (sort_eliminated) {
    result.applied.push_back(Optimization::kSortElimination);
  } else {
    tree = ma::MakeSort(std::move(tree));
  }

  std::set<VarId> predicate_vars;
  for (const mcalc::PredicateCall* call :
       mcalc::AllConstraints(*query.root)) {
    predicate_vars.insert(call->vars.begin(), call->vars.end());
  }
  const bool use_pre_count =
      options_.pre_counting &&
      IsOptimizationValid(Optimization::kPreCounting, props);
  const bool has_disjunction = HasDisjunction(*query.root);

  const std::vector<VarId> free_vars = mcalc::FreeVariables(*query.root);
  const bool can_alt_elim =
      options_.alternate_elimination && sort_eliminated &&
      IsOptimizationValid(Optimization::kAlternateElimination, props);
  const bool can_eager_agg =
      options_.eager_aggregation && sort_eliminated &&
      IsOptimizationValid(Optimization::kEagerAggregation, props);
  // The eager-counting path scores row-first over the collapsed rows. For
  // schemes that are not genuinely row-first this is only consistent when
  // no column ever mixes real and ∅ alternates — i.e. on disjunction-free
  // queries (on those, position-independent α makes every alternate of a
  // column equal, so row and column aggregation coincide).
  const bool can_eager_count =
      options_.eager_counting && sort_eliminated && !props.positional &&
      (props.row_first() || !has_disjunction) &&
      IsOptimizationValid(Optimization::kEagerCounting, props);

  // Variables whose leaves became counted or aggregated leaves.
  std::set<VarId> counted;
  std::set<VarId> aggregated;
  const auto counted_leaf = [use_pre_count](PlanNodePtr atom) {
    return CountedLeaf(std::move(atom), use_pre_count);
  };
  if (can_alt_elim) {
    // ---- Path A: alternate elimination (constant schemes). ----
    // Predicate-free leaves become CA scans (pre-count) or δ_A-limited
    // scans (the first position per document is enough for a constant
    // scheme); a δ_A above the matching tree takes the first surviving
    // match per document; a single π hosts α, Φ, and ω.
    if (use_pre_count) {
      tree = RewriteFreeLeaves(std::move(tree), predicate_vars,
                               /*outside_unions=*/false, counted_leaf,
                               &counted);
      if (!counted.empty()) {
        result.applied.push_back(Optimization::kPreCounting);
      }
    } else {
      std::set<VarId> limited;
      tree = RewriteFreeLeaves(std::move(tree), predicate_vars,
                               /*outside_unions=*/false, ma::MakeAltElim,
                               &limited);
    }
    tree = ma::MakeAltElim(std::move(tree));
    result.applied.push_back(Optimization::kAlternateElimination);
    result.applied.push_back(Optimization::kForwardScanJoin);

    std::vector<ma::ProjectItem> items;
    items.push_back(ma::ProjectItem::Scored(ma::kFinalScoreColumn,
                                            RowScore(*result.phi, counted),
                                            /*finalize=*/true));
    result.plan = ma::MakeProject(std::move(tree), std::move(items));
  } else if (can_eager_agg || (!can_eager_count && !props.row_first())) {
    // ---- Column-first fold (Plan 5). ----
    // Under eager aggregation, the predicate-free leaves outside unions
    // fold their column below the joins, and each join scales by its
    // partner's count. Without it (and without eager counting), a scheme
    // that is not row-first gets the canonical Plan 5 over the rewritten
    // matching subplan.
    std::string count_col;
    if (can_eager_agg) {
      tree = RewriteFreeLeaves(
          std::move(tree), predicate_vars, /*outside_unions=*/true,
          [use_pre_count](PlanNodePtr atom) {
            return AggregatedLeaf(std::move(atom), use_pre_count);
          },
          &aggregated);
      if (!aggregated.empty()) {
        result.applied.push_back(Optimization::kEagerAggregation);
        result.applied.push_back(use_pre_count
                                     ? Optimization::kPreCounting
                                     : Optimization::kEagerCounting);
      }
      int next_join_count = 0;
      count_col = ScaleAtJoins(&tree, aggregated, &next_join_count).count_col;
    }
    result.plan = ColumnFirstScoring(std::move(tree), *result.phi, free_vars,
                                     aggregated, count_col);
  } else {
    // ---- Row-first fold (Plan 6). ----
    // Under eager counting, predicate-free leaves become counted leaves
    // and row-first scoring is preserved over the collapsed rows. Without
    // it, a row-first scheme (BestSum+MinDist, being positional, always)
    // gets the canonical Plan 6 over the rewritten matching subplan.
    if (can_eager_count) {
      tree = RewriteFreeLeaves(std::move(tree), predicate_vars,
                               /*outside_unions=*/false, counted_leaf,
                               &counted);
      if (!counted.empty()) {
        if (use_pre_count) {
          result.applied.push_back(Optimization::kPreCounting);
        }
        result.applied.push_back(Optimization::kEagerCounting);
      }
    }
    result.plan =
        RowFirstScoring(std::move(tree), *result.phi, free_vars, counted);
  }

  // Zig-zag joins are the default physical join everywhere (always valid).
  result.applied.push_back(Optimization::kZigZagJoin);

  // Record the complete rewrite-attempt table (catalog order) by iterating
  // the declarative rule registry: for every rule, whether it fired and the
  // gate/option/structural reason. This is what EXPLAIN prints and what the
  // differential fuzzer checks against `applied`.
  {
    const auto fired = [&result](Optimization opt) {
      return std::find(result.applied.begin(), result.applied.end(), opt) !=
             result.applied.end();
    };
    RuleQueryFacts facts;
    facts.sort_eliminated = sort_eliminated;
    facts.can_alt_elim = can_alt_elim;
    facts.can_eager_agg = can_eager_agg;
    facts.use_pre_count = use_pre_count;
    facts.no_free_leaves = counted.empty() && aggregated.empty();
    facts.has_disjunction = has_disjunction;
    facts.positional_scheme = props.positional;
    facts.row_first_scheme = props.row_first();
    for (const RewriteRule& rule : RewriteRuleRegistry::Global().All()) {
      RewriteAttempt attempt;
      attempt.opt = rule.opt;
      attempt.fired = fired(rule.opt);
      const GateDecision gate = rule.Explain(props);
      if (attempt.fired) {
        attempt.verdict = "gate ok: " + gate.reason;
      } else if (!gate.valid) {
        attempt.verdict = "blocked by gate: " + gate.reason;
      } else if (rule.stage == RuleStage::kExecution) {
        // Execution-stage strategies never fire at plan time; the verdict
        // records that the gate would license them on the top-k path.
        attempt.verdict = "gate ok: " + gate.reason + rule.execution_note;
      } else if (!rule.Enabled(options_)) {
        attempt.verdict = "disabled by options";
      } else {
        // Gate admits it and the toggle is on; the query's structure kept
        // it from firing.
        attempt.verdict = rule.skip_reason != nullptr
                              ? rule.skip_reason(options_, facts)
                              : "always applied";
      }
      if (trace != nullptr) {
        trace->AddEvent("rewrite " + OptimizationName(attempt.opt),
                        (attempt.fired ? "fired; " : "skipped; ") +
                            attempt.verdict);
      }
      result.attempts.push_back(std::move(attempt));
    }
  }

  GRAFT_RETURN_IF_ERROR(ma::ResolvePlan(result.plan.get(), index));
  return result;
}

}  // namespace graft::core
