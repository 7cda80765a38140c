#include "core/canonical_plan.h"

#include <gtest/gtest.h>

#include "mcalc/parser.h"
#include "testutil/fixtures.h"

namespace graft::core {
namespace {

TEST(CanonicalPlanTest, MatchingSubplanShape) {
  // Canonical: τ above σ above a right-deep join tree (Plan 7).
  const mcalc::Query query = testutil::MakeQ3();
  auto plan = BuildMatchingSubplan(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const ma::PlanNode* node = plan->get();
  ASSERT_EQ(node->kind, ma::OpKind::kSort);
  node = node->children[0].get();
  ASSERT_EQ(node->kind, ma::OpKind::kSelect);
  EXPECT_EQ(node->predicates.size(), 2u);  // WINDOW + DISTANCE
  node = node->children[0].get();
  ASSERT_EQ(node->kind, ma::OpKind::kJoin);
}

TEST(CanonicalPlanTest, RightDeepJoinTreeInKeywordOrder) {
  auto query = mcalc::ParseQuery("a b c d");
  ASSERT_TRUE(query.ok());
  auto plan = BuildMatchingSubplanNoSort(*query);
  ASSERT_TRUE(plan.ok());
  const ma::PlanNode* node = plan->get();
  // join(a, join(b, join(c, d)))
  for (const char* expected : {"a", "b", "c"}) {
    ASSERT_EQ(node->kind, ma::OpKind::kJoin);
    EXPECT_EQ(node->children[0]->keyword, expected);
    node = node->children[1].get();
  }
  EXPECT_EQ(node->keyword, "d");
}

TEST(CanonicalPlanTest, RowFirstScoringPortion) {
  // Plan 6: π_{ω} ∘ γ_d{⊕} ∘ π_{Φ∘α} ∘ matching.
  auto query = mcalc::ParseQuery("a b");
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("EventModel");  // row-first
  auto build = BuildCanonicalPlan(*query, *scheme);
  ASSERT_TRUE(build.ok());
  EXPECT_EQ(build->direction_used, sa::Direction::kRowFirst);
  const ma::PlanNode* node = build->plan.get();
  ASSERT_EQ(node->kind, ma::OpKind::kProject);
  EXPECT_TRUE(node->items[0].finalize);
  node = node->children[0].get();
  ASSERT_EQ(node->kind, ma::OpKind::kGroup);
  EXPECT_EQ(node->group.score_aggs.size(), 1u);  // one row-score fold
  node = node->children[0].get();
  ASSERT_EQ(node->kind, ma::OpKind::kProject);
  EXPECT_EQ(node->items.size(), 1u);
  node = node->children[0].get();
  EXPECT_EQ(node->kind, ma::OpKind::kSort);
}

TEST(CanonicalPlanTest, ColumnFirstScoringPortion) {
  // Plan 5: π_{ω∘Φ} ∘ γ_d{⊕ per column} ∘ π_α ∘ matching.
  auto query = mcalc::ParseQuery("a b c");
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("SumBest");  // column-first
  auto build = BuildCanonicalPlan(*query, *scheme);
  ASSERT_TRUE(build.ok());
  EXPECT_EQ(build->direction_used, sa::Direction::kColumnFirst);
  const ma::PlanNode* node = build->plan.get();
  ASSERT_EQ(node->kind, ma::OpKind::kProject);
  node = node->children[0].get();
  ASSERT_EQ(node->kind, ma::OpKind::kGroup);
  EXPECT_EQ(node->group.score_aggs.size(), 3u);  // one ⊕ per column
  node = node->children[0].get();
  ASSERT_EQ(node->kind, ma::OpKind::kProject);
  EXPECT_EQ(node->items.size(), 3u);  // α per column
}

TEST(CanonicalPlanTest, DiagonalSchemesUseColumnFirst) {
  auto query = mcalc::ParseQuery("a b");
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("MeanSum");
  auto build = BuildCanonicalPlan(*query, *scheme);
  ASSERT_TRUE(build.ok());
  EXPECT_EQ(build->direction_used, sa::Direction::kColumnFirst);
}

TEST(CanonicalPlanTest, NegationBecomesAntiJoin) {
  auto query = mcalc::ParseQuery("a !b");
  ASSERT_TRUE(query.ok());
  auto plan = BuildMatchingSubplanNoSort(*query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind, ma::OpKind::kAntiJoin);
}

TEST(CanonicalPlanTest, PureNegationRejected) {
  mcalc::Query query;
  query.variables = {{0, "a"}, {1, "b"}};
  std::vector<mcalc::NodePtr> kids;
  kids.push_back(mcalc::MakeNot(mcalc::MakeKeyword("a", 0)));
  kids.push_back(mcalc::MakeNot(mcalc::MakeKeyword("b", 1)));
  query.root = mcalc::MakeAnd(std::move(kids));
  EXPECT_FALSE(BuildMatchingSubplan(query).ok());
}

TEST(CanonicalPlanTest, QueryContextCountsFreeVariables) {
  const mcalc::Query q3 = testutil::MakeQ3();
  EXPECT_EQ(MakeQueryContext(q3).num_columns, 5u);
  auto negated = mcalc::ParseQuery("a !b c");
  ASSERT_TRUE(negated.ok());
  EXPECT_EQ(MakeQueryContext(*negated).num_columns, 2u);
}

TEST(CanonicalPlanTest, ColumnFirstFoldPassesAggregatedColumnsThrough) {
  // Eager aggregation's Plan 5: an aggregated s_v passes through α and
  // folds unweighted after the position-form columns; the carried count
  // column passes through and weights every position-form fold.
  auto query = mcalc::ParseQuery("a b c");
  ASSERT_TRUE(query.ok());
  auto phi = DeriveScoringPlan(*query);
  ASSERT_TRUE(phi.ok());
  auto matching = BuildMatchingSubplanNoSort(*query);
  ASSERT_TRUE(matching.ok());
  const std::string count = ma::JoinCountColumn(0);
  ma::PlanNodePtr plan = ColumnFirstScoring(std::move(matching).value(),
                                            **phi, {0, 1, 2}, {1}, count);
  const ma::PlanNode* node = plan.get();
  ASSERT_EQ(node->kind, ma::OpKind::kProject);
  ASSERT_EQ(node->items.size(), 1u);
  EXPECT_TRUE(node->items[0].finalize);
  node = node->children[0].get();
  ASSERT_EQ(node->kind, ma::OpKind::kGroup);
  const auto& aggs = node->group.score_aggs;
  ASSERT_EQ(aggs.size(), 3u);
  EXPECT_EQ(aggs[0].input, "s0");
  EXPECT_EQ(aggs[0].scale_count, count);
  EXPECT_EQ(aggs[1].input, "s2");
  EXPECT_EQ(aggs[1].scale_count, count);
  EXPECT_EQ(aggs[2].input, "s1");
  EXPECT_EQ(aggs[2].scale_count, "");
  node = node->children[0].get();
  ASSERT_EQ(node->kind, ma::OpKind::kProject);
  const auto& items = node->items;
  ASSERT_EQ(items.size(), 4u);
  ASSERT_NE(items[0].expr, nullptr);
  EXPECT_EQ(items[0].expr->ToString(), "α(p0)");
  ASSERT_NE(items[1].expr, nullptr);
  EXPECT_EQ(items[1].expr->ToString(), "α(p2)");
  EXPECT_EQ(items[2].source, "s1");
  EXPECT_EQ(items[3].source, count);
}

TEST(CanonicalPlanTest, RowFirstFoldWeightsRowsByCountProduct) {
  // Eager counting's Plan 6: counted variables score through α⊗(c_v),
  // and the product of their counts, cw, weights each row's ⊕ fold.
  auto query = mcalc::ParseQuery("a b c");
  ASSERT_TRUE(query.ok());
  auto phi = DeriveScoringPlan(*query);
  ASSERT_TRUE(phi.ok());
  auto matching = BuildMatchingSubplanNoSort(*query);
  ASSERT_TRUE(matching.ok());
  ma::PlanNodePtr plan = RowFirstScoring(std::move(matching).value(), **phi,
                                         {0, 1, 2}, {0, 2});
  const ma::PlanNode* node = plan.get();
  ASSERT_EQ(node->kind, ma::OpKind::kProject);
  EXPECT_TRUE(node->items[0].finalize);
  node = node->children[0].get();
  ASSERT_EQ(node->kind, ma::OpKind::kGroup);
  ASSERT_EQ(node->group.score_aggs.size(), 1u);
  EXPECT_EQ(node->group.score_aggs[0].input, "s");
  EXPECT_EQ(node->group.score_aggs[0].scale_count, "cw");
  node = node->children[0].get();
  ASSERT_EQ(node->kind, ma::OpKind::kProject);
  ASSERT_EQ(node->items.size(), 2u);
  ASSERT_NE(node->items[0].expr, nullptr);
  const std::string row_score = node->items[0].expr->ToString();
  EXPECT_NE(row_score.find("α⊗(c0)"), std::string::npos) << row_score;
  EXPECT_NE(row_score.find("α(p1)"), std::string::npos) << row_score;
  EXPECT_NE(row_score.find("α⊗(c2)"), std::string::npos) << row_score;
  EXPECT_EQ(row_score.find("α(p0)"), std::string::npos) << row_score;
  EXPECT_EQ(node->items[1].name, "cw");
  EXPECT_EQ(node->items[1].count_product,
            (std::vector<std::string>{"c0", "c2"}));
}

}  // namespace
}  // namespace graft::core
