#include "core/optimizer.h"

#include <algorithm>
#include <functional>
#include <set>
#include <tuple>

#include "core/cost_model.h"

namespace graft::core {

namespace {

using ma::OpKind;
using ma::PlanNode;
using ma::PlanNodePtr;
using mcalc::VarId;

std::string PosCol(VarId var) { return "p" + std::to_string(var); }
std::string ScoreCol(VarId var) { return "s" + std::to_string(var); }
std::string CntCol(VarId var) { return "c" + std::to_string(var); }

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

struct StrategyContext {
  const sa::SchemeProperties* props = nullptr;
  std::set<VarId> predicate_vars;  // variables referenced by any predicate
  bool use_pre_count = false;
  bool use_alt_elim = false;
  // Output bookkeeping.
  std::set<VarId> counted_vars;     // replaced by a counted leaf
  std::set<VarId> aggregated_vars;  // replaced by an aggregated leaf
  int next_combined_count = 0;
};

bool AtomIsFree(const PlanNode& atom, const StrategyContext& ctx) {
  return atom.kind == OpKind::kAtom &&
         ctx.predicate_vars.count(atom.var) == 0;
}

// Path A/C leaf rewrite: predicate-free atoms become counted leaves —
// CA(k) when pre-counting is valid, otherwise γ_{d|c:COUNT}(π_d(A(k)))
// (classical eager counting; physically a position scan that only emits
// counts). Applies inside unions too: padded counts encode ∅ as 0.
// `allow_in_union` is false for the eager-aggregation path.
PlanNodePtr RewriteCountedLeaves(PlanNodePtr node, StrategyContext* ctx,
                                 bool in_union, bool in_anti_right,
                                 bool allow_in_union) {
  if (AtomIsFree(*node, *ctx) && !in_anti_right &&
      (!in_union || allow_in_union)) {
    const VarId var = node->var;
    ctx->counted_vars.insert(var);
    if (ctx->use_pre_count) {
      return ma::MakePreCountAtom(node->keyword, CntCol(var));
    }
    // γ_{d | c:COUNT(*)}(π_d(A)) — the eager-counting equivalence.
    const std::string keyword = node->keyword;
    PlanNodePtr projected =
        ma::MakeProject(std::move(node), std::vector<ma::ProjectItem>{});
    ma::GroupSpec spec;
    spec.count_output = CntCol(var);
    spec.count_keyword = keyword;
    return ma::MakeGroup(std::move(projected), std::move(spec));
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const bool child_in_union =
        in_union || node->kind == OpKind::kOuterUnion;
    const bool child_in_anti_right =
        in_anti_right || (node->kind == OpKind::kAntiJoin && i == 1);
    node->children[i] = RewriteCountedLeaves(
        std::move(node->children[i]), ctx, child_in_union,
        child_in_anti_right, allow_in_union);
  }
  return node;
}

// Path A leaf rewrite without pre-counting: δ_A over predicate-free atoms
// (first position per document is enough for constant schemes; physically
// the scan skips the rest of the document's positions).
PlanNodePtr RewriteAltElimLeaves(PlanNodePtr node, StrategyContext* ctx,
                                 bool in_anti_right) {
  if (AtomIsFree(*node, *ctx) && !in_anti_right) {
    return ma::MakeAltElim(std::move(node));
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const bool child_in_anti_right =
        in_anti_right || (node->kind == OpKind::kAntiJoin && i == 1);
    node->children[i] = RewriteAltElimLeaves(std::move(node->children[i]),
                                             ctx, child_in_anti_right);
  }
  return node;
}

// Path B leaf rewrite: predicate-free atoms outside unions become
// aggregated leaves carrying (s_v, c_v): the column's ⊕-fold and its row
// count. With pre-counting: π{s_v := α⊗(c_v) ⊗ c_v, c_v}(CA(k));
// otherwise: γ_{d | s_v:⊕(s_v), c_v:COUNT}(π{s_v:α(p_v)}(A(k))).
PlanNodePtr RewriteAggregatedLeaves(PlanNodePtr node, StrategyContext* ctx,
                                    bool in_union, bool in_anti_right) {
  if (AtomIsFree(*node, *ctx) && !in_union && !in_anti_right) {
    const VarId var = node->var;
    ctx->aggregated_vars.insert(var);
    if (ctx->use_pre_count) {
      PlanNodePtr ca = ma::MakePreCountAtom(node->keyword, CntCol(var));
      std::vector<ma::ProjectItem> items;
      items.push_back(ma::ProjectItem::Scored(
          ScoreCol(var),
          ma::ScoreExpr::ScaleByCount(
              ma::ScoreExpr::InitFromCount(CntCol(var)), CntCol(var))));
      items.push_back(ma::ProjectItem::Passthrough(CntCol(var)));
      return ma::MakeProject(std::move(ca), std::move(items));
    }
    std::vector<ma::ProjectItem> alpha;
    alpha.push_back(ma::ProjectItem::Scored(
        ScoreCol(var), ma::ScoreExpr::InitPos(PosCol(var))));
    PlanNodePtr projected = ma::MakeProject(std::move(node), std::move(alpha));
    ma::GroupSpec spec;
    spec.score_aggs.push_back({ScoreCol(var), ScoreCol(var), ""});
    spec.count_output = CntCol(var);
    return ma::MakeGroup(std::move(projected), std::move(spec));
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const bool child_in_union =
        in_union || node->kind == OpKind::kOuterUnion;
    const bool child_in_anti_right =
        in_anti_right || (node->kind == OpKind::kAntiJoin && i == 1);
    node->children[i] = RewriteAggregatedLeaves(
        std::move(node->children[i]), ctx, child_in_union,
        child_in_anti_right);
  }
  return node;
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
// adapted to ⊕/⊗.
CarryInfo ScaleAtJoins(PlanNodePtr* node_ref, StrategyContext* ctx) {
  PlanNode* node = node_ref->get();
  switch (node->kind) {
    case OpKind::kJoin: {
      CarryInfo left = ScaleAtJoins(&node->children[0], ctx);
      CarryInfo right = ScaleAtJoins(&node->children[1], ctx);
      CarryInfo merged;
      merged.score_cols = left.score_cols;
      merged.score_cols.insert(merged.score_cols.end(),
                               right.score_cols.begin(),
                               right.score_cols.end());
      if (!left.count_col.empty() && !right.count_col.empty()) {
        // Wrap the scaling π. Position columns pass through; each side's
        // scores scale by the partner count; counts multiply.
        const std::string combined =
            "cx" + std::to_string(ctx->next_combined_count++);
        std::vector<ma::ProjectItem> items;
        // Passthrough of position columns requires the (unresolved)
        // schema; defer by listing the known score/count columns and
        // letting a marker item stand for "all position columns". To keep
        // the plan language simple we enumerate instead: positions flow
        // only from residual subtrees, which carry no counts, so a join
        // with counts on both sides has no position columns from counted
        // sides; residual position columns can only be on one side.
        // We therefore rebuild items from both children's *known*
        // variables at resolve time — here we list score/count scaling
        // and positions are handled by PassthroughAllPos below.
        (void)items;
        std::vector<ma::ProjectItem> out;
        // Positions: passthrough by name for every variable not counted
        // or aggregated (collected later); simplest is to mark them via
        // the special helper that the caller fills in. To avoid deferred
        // machinery we enumerate positions from the subtree variables.
        std::set<VarId> vars;
        CollectVars(*node, &vars);
        for (const VarId var : vars) {
          if (ctx->aggregated_vars.count(var) == 0 &&
              ctx->counted_vars.count(var) == 0) {
            out.push_back(ma::ProjectItem::Passthrough(PosCol(var)));
          }
        }
        for (const std::string& s : left.score_cols) {
          out.push_back(ma::ProjectItem::Scored(
              s, ma::ScoreExpr::ScaleByCount(ma::ScoreExpr::ColRef(s),
                                             right.count_col)));
        }
        for (const std::string& s : right.score_cols) {
          out.push_back(ma::ProjectItem::Scored(
              s, ma::ScoreExpr::ScaleByCount(ma::ScoreExpr::ColRef(s),
                                             left.count_col)));
        }
        out.push_back(ma::ProjectItem::CountProduct(
            combined, {left.count_col, right.count_col}));
        *node_ref = ma::MakeProject(std::move(*node_ref), std::move(out));
        merged.count_col = combined;
        return merged;
      }
      merged.count_col =
          !left.count_col.empty() ? left.count_col : right.count_col;
      return merged;
    }
    case OpKind::kAntiJoin: {
      // Only the left side carries scored/counted state.
      return ScaleAtJoins(&node->children[0], ctx);
    }
    case OpKind::kSelect: {
      return ScaleAtJoins(&node->children[0], ctx);
    }
    case OpKind::kPreCountAtom: {
      CarryInfo info;
      info.count_col = node->output_column;
      return info;
    }
    case OpKind::kProject: {
      // Aggregated pre-count leaf (π over CA) or a previously inserted
      // scaling π: report its score/count columns from the items.
      CarryInfo info;
      for (const ma::ProjectItem& item : node->items) {
        if (item.expr != nullptr) {
          info.score_cols.push_back(item.name);
        } else if (!item.count_product.empty()) {
          info.count_col = item.name;
        } else if (!item.source.empty() && item.source.rfind("c", 0) == 0 &&
                   item.name == item.source) {
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
      if (!node->group.count_output.empty()) {
        info.count_col = node->group.count_output;
      }
      return info;
    }
    default:
      return CarryInfo();
  }
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

  StrategyContext ctx;
  ctx.props = &props;
  for (const mcalc::PredicateCall* call :
       mcalc::AllConstraints(*query.root)) {
    for (const VarId var : call->vars) {
      ctx.predicate_vars.insert(var);
    }
  }
  ctx.use_pre_count =
      options_.pre_counting &&
      IsOptimizationValid(Optimization::kPreCounting, props);

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
  std::function<bool(const mcalc::Node&)> has_disjunction =
      [&has_disjunction](const mcalc::Node& node) {
        if (node.kind == mcalc::NodeKind::kOr) return true;
        for (const mcalc::NodePtr& child : node.children) {
          if (has_disjunction(*child)) return true;
        }
        return false;
      };
  const bool can_eager_count =
      options_.eager_counting && sort_eliminated && !props.positional &&
      (props.row_first() || !has_disjunction(*query.root)) &&
      IsOptimizationValid(Optimization::kEagerCounting, props);

  if (can_alt_elim) {
    // ---- Path A: alternate elimination (constant schemes). ----
    // Predicate-free leaves become CA scans (pre-count) or δ_A-limited
    // scans; a δ_A above the matching tree takes the first surviving match
    // per document; a single π hosts α, Φ, and ω.
    if (ctx.use_pre_count) {
      tree = RewriteCountedLeaves(std::move(tree), &ctx, false, false,
                                  /*allow_in_union=*/true);
      if (!ctx.counted_vars.empty()) {
        result.applied.push_back(Optimization::kPreCounting);
      }
    } else {
      tree = RewriteAltElimLeaves(std::move(tree), &ctx, false);
    }
    tree = ma::MakeAltElim(std::move(tree));
    result.applied.push_back(Optimization::kAlternateElimination);
    result.applied.push_back(Optimization::kForwardScanJoin);

    ma::ScoreExprPtr phi_expr =
        PhiToScoreExpr(*result.phi, [&ctx](VarId var) {
          if (ctx.counted_vars.count(var) != 0) {
            return ma::ScoreExpr::InitFromCount(CntCol(var));
          }
          return ma::ScoreExpr::InitPos(PosCol(var));
        });
    std::vector<ma::ProjectItem> items;
    items.push_back(ma::ProjectItem::Scored("score", std::move(phi_expr),
                                            /*finalize=*/true));
    result.plan = ma::MakeProject(std::move(tree), std::move(items));
  } else if (can_eager_agg) {
    // ---- Path B: eager aggregation (column-first / diagonal). ----
    tree = RewriteAggregatedLeaves(std::move(tree), &ctx, false, false);
    if (!ctx.aggregated_vars.empty()) {
      result.applied.push_back(Optimization::kEagerAggregation);
      if (ctx.use_pre_count) {
        result.applied.push_back(Optimization::kPreCounting);
      } else {
        result.applied.push_back(Optimization::kEagerCounting);
      }
    }
    CarryInfo carry = ScaleAtJoins(&tree, &ctx);

    // Residual α: variables whose positions still flow to the top.
    std::vector<ma::ProjectItem> pre_group;
    std::vector<VarId> residual_vars;
    for (const VarId var : free_vars) {
      if (ctx.aggregated_vars.count(var) == 0) {
        residual_vars.push_back(var);
        pre_group.push_back(ma::ProjectItem::Scored(
            ScoreCol(var), ma::ScoreExpr::InitPos(PosCol(var))));
      }
    }
    for (const VarId var : free_vars) {
      if (ctx.aggregated_vars.count(var) != 0) {
        pre_group.push_back(ma::ProjectItem::Passthrough(ScoreCol(var)));
      }
    }
    if (!carry.count_col.empty()) {
      pre_group.push_back(ma::ProjectItem::Passthrough(carry.count_col));
    }
    ma::PlanNodePtr plan =
        ma::MakeProject(std::move(tree), std::move(pre_group));

    // Final γ_d: residual columns ⊕-fold (each row weighted by the
    // aggregate count product); aggregated columns fold over the group's
    // residual rows, which scales them by the residual multiplicity.
    ma::GroupSpec group;
    for (const VarId var : residual_vars) {
      group.score_aggs.push_back(
          {ScoreCol(var), ScoreCol(var), carry.count_col});
    }
    for (const VarId var : free_vars) {
      if (ctx.aggregated_vars.count(var) != 0) {
        group.score_aggs.push_back({ScoreCol(var), ScoreCol(var), ""});
      }
    }
    plan = ma::MakeGroup(std::move(plan), std::move(group));

    std::vector<ma::ProjectItem> final_items;
    final_items.push_back(ma::ProjectItem::Scored(
        "score", PhiToScoreExpr(*result.phi,
                                [](VarId var) {
                                  return ma::ScoreExpr::ColRef(ScoreCol(var));
                                }),
        /*finalize=*/true));
    result.plan = ma::MakeProject(std::move(plan), std::move(final_items));
  } else if (can_eager_count) {
    // ---- Path C: eager counting with row-first scoring preserved. ----
    tree = RewriteCountedLeaves(std::move(tree), &ctx, false, false,
                                /*allow_in_union=*/true);
    if (!ctx.counted_vars.empty()) {
      if (ctx.use_pre_count) {
        result.applied.push_back(Optimization::kPreCounting);
      }
      result.applied.push_back(Optimization::kEagerCounting);
    }

    // Row score over the collapsed rows; each physical row stands for the
    // product of its counts many match rows with identical scores.
    ma::ScoreExprPtr phi_expr =
        PhiToScoreExpr(*result.phi, [&ctx](VarId var) {
          if (ctx.counted_vars.count(var) != 0) {
            return ma::ScoreExpr::InitFromCount(CntCol(var));
          }
          return ma::ScoreExpr::InitPos(PosCol(var));
        });
    std::vector<ma::ProjectItem> row_items;
    row_items.push_back(
        ma::ProjectItem::Scored("s", std::move(phi_expr)));
    std::vector<std::string> count_cols;
    for (const VarId var : free_vars) {
      if (ctx.counted_vars.count(var) != 0) {
        count_cols.push_back(CntCol(var));
      }
    }
    std::string weight_col;
    if (!count_cols.empty()) {
      weight_col = "cw";
      row_items.push_back(
          ma::ProjectItem::CountProduct(weight_col, std::move(count_cols)));
    }
    ma::PlanNodePtr plan =
        ma::MakeProject(std::move(tree), std::move(row_items));

    ma::GroupSpec group;
    group.score_aggs.push_back({"s", "s", weight_col});
    plan = ma::MakeGroup(std::move(plan), std::move(group));

    std::vector<ma::ProjectItem> final_items;
    final_items.push_back(ma::ProjectItem::Scored(
        "score", ma::ScoreExpr::ColRef("s"), /*finalize=*/true));
    result.plan = ma::MakeProject(std::move(plan), std::move(final_items));
  } else {
    // ---- Path D: matching optimizations only. ----
    // Canonical-shaped scoring portion over the (pushed, reordered)
    // matching subplan, honouring the scheme's directionality. Used for
    // positional row-first schemes (BestSum+MinDist) and whenever the
    // grouped paths are disabled or gated off.
    if (props.row_first()) {
      ma::ScoreExprPtr phi_expr =
          PhiToScoreExpr(*result.phi, [](VarId var) {
            return ma::ScoreExpr::InitPos(PosCol(var));
          });
      std::vector<ma::ProjectItem> row_items;
      row_items.push_back(ma::ProjectItem::Scored("s", std::move(phi_expr)));
      ma::PlanNodePtr plan =
          ma::MakeProject(std::move(tree), std::move(row_items));
      ma::GroupSpec group;
      group.score_aggs.push_back({"s", "s", ""});
      plan = ma::MakeGroup(std::move(plan), std::move(group));
      std::vector<ma::ProjectItem> final_items;
      final_items.push_back(ma::ProjectItem::Scored(
          "score", ma::ScoreExpr::ColRef("s"), /*finalize=*/true));
      result.plan = ma::MakeProject(std::move(plan), std::move(final_items));
    } else {
      std::vector<ma::ProjectItem> alpha_items;
      for (const VarId var : free_vars) {
        alpha_items.push_back(ma::ProjectItem::Scored(
            ScoreCol(var), ma::ScoreExpr::InitPos(PosCol(var))));
      }
      ma::PlanNodePtr plan =
          ma::MakeProject(std::move(tree), std::move(alpha_items));
      ma::GroupSpec group;
      for (const VarId var : free_vars) {
        group.score_aggs.push_back({ScoreCol(var), ScoreCol(var), ""});
      }
      plan = ma::MakeGroup(std::move(plan), std::move(group));
      std::vector<ma::ProjectItem> final_items;
      final_items.push_back(ma::ProjectItem::Scored(
          "score",
          PhiToScoreExpr(*result.phi,
                         [](VarId var) {
                           return ma::ScoreExpr::ColRef(ScoreCol(var));
                         }),
          /*finalize=*/true));
      result.plan = ma::MakeProject(std::move(plan), std::move(final_items));
    }
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
    facts.use_pre_count = ctx.use_pre_count;
    facts.no_free_leaves =
        ctx.counted_vars.empty() && ctx.aggregated_vars.empty();
    facts.has_disjunction = has_disjunction(*query.root);
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
