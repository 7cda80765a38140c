// Logical GRAFT plans: Matching Algebra operators (Section 3.2) plus the
// hosted Scoring Algebra (Section 4.3).
//
// Operator inventory and their paper notation:
//   kAtom          A(k, d, p)     term-position index scan
//   kPreCountAtom  CA(k, d, c)    term-document index scan (Section 5.2.3)
//   kJoin          ⋈              natural join on d (+ residual predicates
//                                 once selections are pushed into it)
//   kOuterUnion    ⊎              outer bag-union; pads missing position
//                                 columns with ∅ (safe disjunction)
//   kSelect        σ              positional predicate filter
//   kProject       π              generalized projection; hosts α, ⊘, ⊚, ⊗
//                                 and ω
//   kAntiJoin      ▷              anti-join on d (negated keywords)
//   kGroup         γ              grouping; hosts ⊕ and COUNT
//   kAltElim       δ_A            alternate elimination (Section 5.2.3)
//   kSort          τ              lexicographic sort of the match table
//
// A plan whose matching operators (everything except π/γ hosting scoring)
// form a connected subtree below all scoring operators is score-isolated
// (Section 2). The optimizer's rewrites (src/core) interleave the layers.

#ifndef GRAFT_MA_PLAN_H_
#define GRAFT_MA_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/inverted_index.h"
#include "ma/schema.h"
#include "ma/score_expr.h"
#include "mcalc/predicates.h"

namespace graft::ma {

enum class OpKind {
  kAtom,
  kPreCountAtom,
  kJoin,
  kOuterUnion,
  kSelect,
  kProject,
  kAntiJoin,
  kGroup,
  kAltElim,
  kSort,
};

std::string OpKindName(OpKind kind);

// One output of a generalized projection: either a passthrough of an input
// column or a computed score.
struct ProjectItem {
  std::string name;    // output column name
  std::string source;  // non-empty: passthrough of this input column
  ScoreExprPtr expr;   // else if set: computed score expression
  bool finalize = false;  // apply ω to the expression result
  // Else: count product over these count columns (eager counting's
  // "when two eagerly counted tuples join, their counts are multiplied";
  // counts of 0 encode ∅ and contribute a factor of 1).
  std::vector<std::string> count_product;

  ProjectItem() = default;
  ProjectItem(const ProjectItem& other) { *this = other; }
  ProjectItem& operator=(const ProjectItem& other) {
    name = other.name;
    source = other.source;
    expr = other.expr == nullptr ? nullptr : other.expr->Clone();
    finalize = other.finalize;
    count_product = other.count_product;
    return *this;
  }
  ProjectItem(ProjectItem&&) = default;
  ProjectItem& operator=(ProjectItem&&) = default;

  static ProjectItem Passthrough(std::string column) {
    ProjectItem item;
    item.name = column;
    item.source = std::move(column);
    return item;
  }
  static ProjectItem Scored(std::string name, ScoreExprPtr expr,
                            bool finalize = false) {
    ProjectItem item;
    item.name = std::move(name);
    item.expr = std::move(expr);
    item.finalize = finalize;
    return item;
  }
  static ProjectItem CountProduct(std::string name,
                                  std::vector<std::string> counts) {
    ProjectItem item;
    item.name = std::move(name);
    item.count_product = std::move(counts);
    return item;
  }
};

// γ specification. Groups by d only: one output row per document, which
// aggregates score columns with ⊕ (each input row's contribution optionally
// pre-scaled by a count column — the eager-aggregation bookkeeping of
// Section 5.2.1) and may count the document's rows.
struct GroupSpec {
  struct ScoreAgg {
    std::string input;         // input score column
    std::string output;        // output score column
    std::string scale_count;   // optional count column weighting each row
  };
  std::vector<ScoreAgg> score_aggs;

  // If set, emits a COUNT(*) column of this name.
  std::string count_output;
  // Keyword whose occurrences the COUNT(*) column counts (eager counting
  // over one atom); gives the output count column its term identity so
  // hosted α⊗ calls can recover the keyword's statistics.
  std::string count_keyword;
};

struct PlanNode;
using PlanNodePtr = std::unique_ptr<PlanNode>;

struct PlanNode {
  OpKind kind;
  std::vector<PlanNodePtr> children;

  // kAtom / kPreCountAtom.
  std::string keyword;
  mcalc::VarId var = -1;        // kAtom: bound variable
  TermId term = kInvalidTerm;   // resolved by ResolvePlan
  std::string output_column;    // "p<var>" or count column name

  // kSelect and kJoin (residual predicates after selection pushing).
  std::vector<mcalc::PredicateCall> predicates;

  // kProject.
  std::vector<ProjectItem> items;

  // kGroup.
  GroupSpec group;

  // Resolved output schema (by ResolvePlan).
  Schema schema;

  PlanNodePtr Clone() const;
};

// ---- Constructors ----
PlanNodePtr MakeAtom(std::string keyword, mcalc::VarId var);
PlanNodePtr MakePreCountAtom(std::string keyword, std::string count_column);
PlanNodePtr MakeJoin(PlanNodePtr left, PlanNodePtr right,
                     std::vector<mcalc::PredicateCall> residual = {});
PlanNodePtr MakeOuterUnion(std::vector<PlanNodePtr> children);
PlanNodePtr MakeSelect(PlanNodePtr child,
                       std::vector<mcalc::PredicateCall> predicates);
PlanNodePtr MakeProject(PlanNodePtr child, std::vector<ProjectItem> items);
PlanNodePtr MakeAntiJoin(PlanNodePtr left, PlanNodePtr right);
PlanNodePtr MakeGroup(PlanNodePtr child, GroupSpec spec);
PlanNodePtr MakeAltElim(PlanNodePtr child);
PlanNodePtr MakeSort(PlanNodePtr child);

// Resolves keyword terms against the index, computes every node's output
// schema bottom-up, and validates column references (π sources, γ inputs,
// predicate variables). Must be called before evaluation and re-called
// after rewrites.
Status ResolvePlan(PlanNode* root, const index::InvertedIndex& index);

// Multi-line indented plan rendering (for EXPLAIN output and tests).
std::string PlanToString(const PlanNode& root);

}  // namespace graft::ma

#endif  // GRAFT_MA_PLAN_H_
