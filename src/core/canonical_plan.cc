#include "core/canonical_plan.h"

#include <algorithm>

namespace graft::core {

namespace {

// Translates the boolean structure into MA. Constraints in non-negated
// scope are collected into `top_constraints` (canonical plans place them in
// one σ above the joins); constraints under negation stay inline in the
// anti-join subplan (they are invisible at the top: their variables are
// quantified away).
StatusOr<ma::PlanNodePtr> TranslateBool(
    const mcalc::Node& node, bool collecting,
    std::vector<mcalc::PredicateCall>* top_constraints) {
  switch (node.kind) {
    case mcalc::NodeKind::kKeyword:
      return ma::MakeAtom(node.keyword, node.var);
    case mcalc::NodeKind::kAnd: {
      std::vector<const mcalc::Node*> positives;
      std::vector<const mcalc::Node*> negatives;
      for (const mcalc::NodePtr& child : node.children) {
        if (child->kind == mcalc::NodeKind::kNot) {
          negatives.push_back(child->children[0].get());
        } else {
          positives.push_back(child.get());
        }
      }
      if (positives.empty()) {
        return Status::InvalidArgument(
            "conjunction of only negated terms is unsafe (no positive "
            "keyword to range over)");
      }
      // Right-deep join tree in keyword order (canonical).
      ma::PlanNodePtr acc;
      for (auto it = positives.rbegin(); it != positives.rend(); ++it) {
        GRAFT_ASSIGN_OR_RETURN(
            ma::PlanNodePtr plan,
            TranslateBool(**it, collecting, top_constraints));
        acc = acc == nullptr
                  ? std::move(plan)
                  : ma::MakeJoin(std::move(plan), std::move(acc));
      }
      // Negated subtrees become anti-joins above the positive tree.
      for (const mcalc::Node* negative : negatives) {
        GRAFT_ASSIGN_OR_RETURN(
            ma::PlanNodePtr anti,
            TranslateBool(*negative, /*collecting=*/false, nullptr));
        acc = ma::MakeAntiJoin(std::move(acc), std::move(anti));
      }
      return acc;
    }
    case mcalc::NodeKind::kOr: {
      std::vector<ma::PlanNodePtr> branches;
      branches.reserve(node.children.size());
      for (const mcalc::NodePtr& child : node.children) {
        if (child->kind == mcalc::NodeKind::kNot) {
          return Status::InvalidArgument(
              "negation directly under disjunction is unsafe");
        }
        GRAFT_ASSIGN_OR_RETURN(
            ma::PlanNodePtr plan,
            TranslateBool(*child, collecting, top_constraints));
        branches.push_back(std::move(plan));
      }
      return ma::MakeOuterUnion(std::move(branches));
    }
    case mcalc::NodeKind::kNot:
      return Status::InvalidArgument(
          "negation is only supported as a conjunct (a AND NOT b)");
    case mcalc::NodeKind::kConstrained: {
      GRAFT_ASSIGN_OR_RETURN(
          ma::PlanNodePtr child,
          TranslateBool(*node.children[0], collecting, top_constraints));
      if (collecting) {
        for (const mcalc::PredicateCall& call : node.constraints) {
          top_constraints->push_back(call);
        }
        return child;
      }
      return ma::MakeSelect(std::move(child), node.constraints);
    }
  }
  return Status::Internal("unknown AST node kind");
}

StatusOr<ma::PlanNodePtr> BuildMatching(const mcalc::Query& query,
                                        bool with_sort) {
  GRAFT_RETURN_IF_ERROR(mcalc::ValidateQuery(query));
  std::vector<mcalc::PredicateCall> constraints;
  GRAFT_ASSIGN_OR_RETURN(
      ma::PlanNodePtr plan,
      TranslateBool(*query.root, /*collecting=*/true, &constraints));
  if (!constraints.empty()) {
    plan = ma::MakeSelect(std::move(plan), std::move(constraints));
  }
  if (with_sort) {
    plan = ma::MakeSort(std::move(plan));
  }
  return plan;
}

}  // namespace

StatusOr<ma::PlanNodePtr> BuildMatchingSubplan(const mcalc::Query& query) {
  return BuildMatching(query, /*with_sort=*/true);
}

StatusOr<ma::PlanNodePtr> BuildMatchingSubplanNoSort(
    const mcalc::Query& query) {
  return BuildMatching(query, /*with_sort=*/false);
}

sa::QueryContext MakeQueryContext(const mcalc::Query& query) {
  sa::QueryContext ctx;
  ctx.num_columns = static_cast<uint32_t>(
      mcalc::FreeVariables(*query.root).size());
  return ctx;
}

ma::ScoreExprPtr RowScore(const PhiNode& phi,
                          const std::set<mcalc::VarId>& counted) {
  return PhiToScoreExpr(phi, [&counted](mcalc::VarId var) {
    return counted.count(var) != 0
               ? ma::ScoreExpr::InitFromCount(ma::CountColumn(var))
               : ma::ScoreExpr::InitPos(ma::PosColumn(var));
  });
}

ma::PlanNodePtr ColumnFirstScoring(ma::PlanNodePtr matching,
                                   const PhiNode& phi,
                                   const std::vector<mcalc::VarId>& vars,
                                   const std::set<mcalc::VarId>& aggregated,
                                   const std::string& count_column) {
  // π applies α to each cell still in position form; aggregated columns
  // and the count column pass through. γ_d ⊕-folds each column: a
  // position-form column's rows each stand for `count_column` match rows;
  // an aggregated column folds over the document's remaining rows, which
  // scales it by their multiplicity. Position-form columns come first.
  std::vector<mcalc::VarId> order = vars;
  std::stable_partition(order.begin(), order.end(), [&](mcalc::VarId var) {
    return aggregated.count(var) == 0;
  });
  std::vector<ma::ProjectItem> alpha_items;
  ma::GroupSpec group;
  for (const mcalc::VarId var : order) {
    const std::string score = ma::ScoreColumn(var);
    if (aggregated.count(var) == 0) {
      alpha_items.push_back(ma::ProjectItem::Scored(
          score, ma::ScoreExpr::InitPos(ma::PosColumn(var))));
      group.score_aggs.push_back({score, score, count_column});
    } else {
      alpha_items.push_back(ma::ProjectItem::Passthrough(score));
      group.score_aggs.push_back({score, score, ""});
    }
  }
  if (!count_column.empty()) {
    alpha_items.push_back(ma::ProjectItem::Passthrough(count_column));
  }
  ma::PlanNodePtr plan =
      ma::MakeProject(std::move(matching), std::move(alpha_items));
  plan = ma::MakeGroup(std::move(plan), std::move(group));

  // π evaluates Φ over the column scores and applies ω.
  std::vector<ma::ProjectItem> final_items;
  final_items.push_back(ma::ProjectItem::Scored(
      ma::kFinalScoreColumn, PhiToScoreExpr(phi, [](mcalc::VarId var) {
        return ma::ScoreExpr::ColRef(ma::ScoreColumn(var));
      }),
      /*finalize=*/true));
  return ma::MakeProject(std::move(plan), std::move(final_items));
}

ma::PlanNodePtr RowFirstScoring(ma::PlanNodePtr matching, const PhiNode& phi,
                                const std::vector<mcalc::VarId>& vars,
                                const std::set<mcalc::VarId>& counted) {
  // π scores each row via α and Φ. Each counted row stands for the product
  // of its counts many match rows with equal scores: that product weights it.
  std::vector<ma::ProjectItem> row_items;
  row_items.push_back(
      ma::ProjectItem::Scored(ma::kRowScoreColumn, RowScore(phi, counted)));
  std::vector<std::string> count_columns;
  for (const mcalc::VarId var : vars) {
    if (counted.count(var) != 0) {
      count_columns.push_back(ma::CountColumn(var));
    }
  }
  std::string weight_column;
  if (!count_columns.empty()) {
    weight_column = ma::kRowWeightColumn;
    row_items.push_back(ma::ProjectItem::CountProduct(
        weight_column, std::move(count_columns)));
  }
  ma::PlanNodePtr plan =
      ma::MakeProject(std::move(matching), std::move(row_items));

  // γ_d aggregates the rows with ⊕; π applies ω.
  ma::GroupSpec group;
  group.score_aggs.push_back(
      {ma::kRowScoreColumn, ma::kRowScoreColumn, weight_column});
  plan = ma::MakeGroup(std::move(plan), std::move(group));

  std::vector<ma::ProjectItem> final_items;
  final_items.push_back(ma::ProjectItem::Scored(
      ma::kFinalScoreColumn, ma::ScoreExpr::ColRef(ma::kRowScoreColumn),
      /*finalize=*/true));
  return ma::MakeProject(std::move(plan), std::move(final_items));
}

StatusOr<CanonicalBuild> BuildCanonicalPlan(const mcalc::Query& query,
                                            const sa::ScoringScheme& scheme) {
  CanonicalBuild build;
  GRAFT_ASSIGN_OR_RETURN(build.phi, DeriveScoringPlan(query));
  GRAFT_ASSIGN_OR_RETURN(ma::PlanNodePtr matching,
                         BuildMatchingSubplan(query));
  const std::vector<mcalc::VarId> vars = mcalc::FreeVariables(*query.root);
  if (scheme.properties().direction == sa::Direction::kRowFirst) {
    build.direction_used = sa::Direction::kRowFirst;
    build.plan = RowFirstScoring(std::move(matching), *build.phi, vars);
  } else {
    build.direction_used = sa::Direction::kColumnFirst;
    build.plan = ColumnFirstScoring(std::move(matching), *build.phi, vars);
  }
  return build;
}

}  // namespace graft::core
