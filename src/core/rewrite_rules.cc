#include "core/rewrite_rules.h"

#include <algorithm>

namespace graft::core {

namespace {

// Requirement predicates (function pointers: the registry is constexpr-ish
// static data, no captures needed).
bool AltCommutative(const sa::SchemeProperties& p) {
  return p.alt.commutative;
}
bool AltAssociative(const sa::SchemeProperties& p) {
  return p.alt.associative;
}
bool AltIdempotent(const sa::SchemeProperties& p) {
  return p.alt.idempotent;
}
bool ConstantScheme(const sa::SchemeProperties& p) { return p.constant; }
bool NotRowFirst(const sa::SchemeProperties& p) { return !p.row_first(); }
bool NonPositional(const sa::SchemeProperties& p) { return !p.positional; }
bool ConjMonotonic(const sa::SchemeProperties& p) {
  return p.conj.monotonic_increasing;
}
bool DisjMonotonic(const sa::SchemeProperties& p) {
  return p.disj.monotonic_increasing;
}
bool Diagonal(const sa::SchemeProperties& p) { return p.diagonal(); }
bool Bounded(const sa::SchemeProperties& p) { return p.bounded; }

// ---- structural skip reasons (EXPLAIN's rewrite table) -------------------

std::string SkipAlways(const OptimizerOptions&, const RuleQueryFacts&) {
  return "always applied";
}

std::string SkipSelectionPushing(const OptimizerOptions&,
                                 const RuleQueryFacts&) {
  return "no predicates to push";
}

std::string SkipNeedsSortElim(const OptimizerOptions&,
                              const RuleQueryFacts&) {
  return "requires sort elimination";
}

std::string SkipEagerAggregation(const OptimizerOptions&,
                                 const RuleQueryFacts& facts) {
  if (!facts.sort_eliminated) return "requires sort elimination";
  if (facts.can_alt_elim) {
    return "superseded by alternate elimination (constant scheme)";
  }
  return "no predicate-free keyword leaves";
}

std::string SkipEagerCounting(const OptimizerOptions&,
                              const RuleQueryFacts& facts) {
  if (!facts.sort_eliminated) return "requires sort elimination";
  if (facts.can_alt_elim) {
    return "superseded by alternate elimination (constant scheme)";
  }
  if (facts.can_eager_agg) {
    return facts.use_pre_count ? "superseded by pre-counting"
                               : "no predicate-free keyword leaves";
  }
  if (facts.positional_scheme) {
    return "positions required by α (positional scheme)";
  }
  if (!facts.row_first_scheme && facts.has_disjunction) {
    return "query has disjunction and scheme is not row-first";
  }
  return "no predicate-free keyword leaves";
}

std::string SkipPreCounting(const OptimizerOptions&,
                            const RuleQueryFacts& facts) {
  if (!facts.sort_eliminated) return "requires sort elimination";
  if (facts.no_free_leaves) return "no predicate-free keyword leaves";
  return "no counting path applicable";
}

}  // namespace

bool RewriteRule::Licensed(const sa::SchemeProperties& props) const {
  for (const PropertyRequirement& req : requirements) {
    if (!req.check(props)) return false;
  }
  return true;
}

GateDecision RewriteRule::Explain(const sa::SchemeProperties& props) const {
  GateDecision decision;
  decision.valid = true;
  for (const PropertyRequirement& req : requirements) {
    if (!req.check(props)) {
      decision.valid = false;
      decision.reason = req.fail_reason;
      return decision;
    }
  }
  if (!licensed_reason.empty()) {
    decision.reason = licensed_reason;
    return decision;
  }
  if (requirements.empty()) {
    decision.reason = "no scheme requirement (Section 5.2.4)";
    return decision;
  }
  for (const PropertyRequirement& req : requirements) {
    if (!decision.reason.empty()) decision.reason += ", ";
    decision.reason += req.name;
  }
  return decision;
}

bool RewriteRule::Enabled(const OptimizerOptions& options) const {
  return toggle == nullptr || options.*toggle;
}

RewriteRuleRegistry::RewriteRuleRegistry() {
  // Catalog order == kAllOptimizations order == EXPLAIN's rewrite table.
  rules_.push_back(RewriteRule{
      Optimization::kSortElimination,
      "sort_elimination",
      "γ_d τ_⊕ over match rows",
      "γ_d with order-insensitive ⊕ fold (drop the τ)",
      RuleStage::kPlan,
      {{"⊕ commutes", "⊕ not commutative", &AltCommutative}},
      /*licensed_reason=*/"",
      &OptimizerOptions::eliminate_sort,
      {},
      &SkipAlways,
      /*execution_note=*/""});
  rules_.push_back(RewriteRule{
      Optimization::kJoinReordering,
      "join_reordering",
      "⋈ tree over keyword scans",
      "⋈ tree ordered by ascending positions-scanned (or cost model)",
      RuleStage::kPlan,
      {},
      "",
      &OptimizerOptions::reorder_joins,
      {},
      &SkipAlways,
      ""});
  rules_.push_back(RewriteRule{
      Optimization::kSelectionPushing,
      "selection_pushing",
      "σ_p above a ⋈/∪ subtree",
      "σ_p pushed onto the scan(s) of the predicate's variable",
      RuleStage::kPlan,
      {},
      "",
      &OptimizerOptions::push_selections,
      {},
      &SkipSelectionPushing,
      ""});
  rules_.push_back(RewriteRule{
      Optimization::kZigZagJoin,
      "zigzag_join",
      "any ⋈ of document-sorted inputs",
      "galloping zig-zag ⋈ with skip probes",
      RuleStage::kPlan,
      {},
      "",
      /*toggle=*/nullptr,
      {},
      &SkipAlways,
      ""});
  rules_.push_back(RewriteRule{
      Optimization::kForwardScanJoin,
      "forward_scan_join",
      "δ_A-limited scans under a ⋈ (constant scheme)",
      "forward scan taking the first alternate per document",
      RuleStage::kPlan,
      {{"scheme is constant", "scheme not constant", &ConstantScheme}},
      "",
      &OptimizerOptions::alternate_elimination,
      {&OptimizerOptions::eliminate_sort},
      &SkipNeedsSortElim,
      ""});
  rules_.push_back(RewriteRule{
      Optimization::kAlternateElimination,
      "alternate_elimination",
      "γ_d ⊕-fold over equal alternates (constant scheme)",
      "δ_A above the matching tree: keep one surviving match per document",
      RuleStage::kPlan,
      {{"scheme is constant", "scheme not constant", &ConstantScheme}},
      "",
      &OptimizerOptions::alternate_elimination,
      {&OptimizerOptions::eliminate_sort},
      &SkipNeedsSortElim,
      ""});
  rules_.push_back(RewriteRule{
      Optimization::kEagerAggregation,
      "eager_aggregation",
      "per-keyword ⊕ above the ⋈ tree",
      "⊕ pushed below the joins with ⊗ count bookkeeping at each ⋈",
      RuleStage::kPlan,
      {{"⊕ fully associative", "⊕ not fully associative", &AltAssociative},
       {"not row-first", "scheme is row-first", &NotRowFirst}},
      "",
      &OptimizerOptions::eager_aggregation,
      {&OptimizerOptions::eliminate_sort},
      &SkipEagerAggregation,
      ""});
  rules_.push_back(RewriteRule{
      Optimization::kEagerCounting,
      "eager_counting",
      "row-first Φ over predicate-free keyword leaves",
      "leaves collapsed to (doc, count); row scores weighted by counts",
      RuleStage::kPlan,
      {},
      "",
      &OptimizerOptions::eager_counting,
      {&OptimizerOptions::eliminate_sort},
      &SkipEagerCounting,
      ""});
  rules_.push_back(RewriteRule{
      Optimization::kPreCounting,
      "pre_counting",
      "predicate-free keyword scans (non-positional α)",
      "CA count-table scans replacing position enumeration",
      RuleStage::kPlan,
      {{"non-positional scheme", "scheme is positional", &NonPositional}},
      "",
      &OptimizerOptions::pre_counting,
      // Pre-counted leaves only exist inside the alt-elim or eager-agg
      // grouped paths, which in turn need the sort eliminated.
      {&OptimizerOptions::eliminate_sort,
       &OptimizerOptions::alternate_elimination,
       &OptimizerOptions::eager_aggregation},
      &SkipPreCounting,
      ""});
  rules_.push_back(RewriteRule{
      Optimization::kRankJoin,
      "rank_join",
      "top-k over a pure keyword conjunction",
      "term-bound MaxScore top-k: TA threshold stop on list-wide term "
      "upper bounds",
      RuleStage::kExecution,
      {{"⊘ monotonic increasing", "⊘ not monotonic increasing",
        &ConjMonotonic},
       {"diagonal", "scheme not diagonal", &Diagonal}},
      "",
      nullptr,
      {},
      nullptr,
      "; applies to top-k pure keyword queries at execution"});
  rules_.push_back(RewriteRule{
      Optimization::kRankUnion,
      "rank_union",
      "top-k over a pure keyword disjunction",
      "term-bound MaxScore top-k: essential/non-essential partition on "
      "list-wide term upper bounds",
      RuleStage::kExecution,
      {{"⊚ monotonic increasing", "⊚ not monotonic increasing",
        &DisjMonotonic},
       {"diagonal", "scheme not diagonal", &Diagonal}},
      "",
      nullptr,
      {},
      nullptr,
      "; applies to top-k pure keyword queries at execution"});
  rules_.push_back(RewriteRule{
      Optimization::kBlockMaxPruning,
      "block_max_pruning",
      "top-k pure keyword query over a block-max index",
      "block-max MaxScore top-k: block skipping against exact per-block "
      "score ceilings",
      RuleStage::kExecution,
      // Fail-check order (first violated property decides the reason);
      // the licensed wording below keeps the canonical Table-1 order.
      {{"α bounded", "α not upper-boundable", &Bounded},
       {"⊕ idempotent", "⊕ not idempotent", &AltIdempotent},
       {"scheme diagonal", "scheme not diagonal", &Diagonal},
       {"⊘ monotonic increasing", "⊘ not monotonic increasing",
        &ConjMonotonic},
       {"⊚ monotonic increasing", "⊚ not monotonic increasing",
        &DisjMonotonic}},
      "α bounded, ⊕ idempotent, ⊘/⊚ monotonic increasing, diagonal",
      nullptr,
      {},
      nullptr,
      "; applies to top-k pure keyword queries over block-max "
      "indexes at execution"});
}

const RewriteRuleRegistry& RewriteRuleRegistry::Global() {
  static const RewriteRuleRegistry* registry = new RewriteRuleRegistry();
  return *registry;
}

const RewriteRule* RewriteRuleRegistry::Lookup(std::string_view id) const {
  for (const RewriteRule& rule : rules_) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

const RewriteRule* RewriteRuleRegistry::Find(Optimization opt) const {
  for (const RewriteRule& rule : rules_) {
    if (rule.opt == opt) return &rule;
  }
  return nullptr;
}

OptimizerOptions RewriteRuleRegistry::AllRulesOff() const {
  OptimizerOptions options;
  options.push_selections = false;
  options.reorder_joins = false;
  options.cost_based_join_order = false;
  options.eliminate_sort = false;
  options.eager_aggregation = false;
  options.eager_counting = false;
  options.pre_counting = false;
  options.alternate_elimination = false;
  return options;
}

OptimizerOptions RewriteRuleRegistry::OnlyRuleOptions(
    const RewriteRule& rule) const {
  OptimizerOptions options = AllRulesOff();
  if (rule.toggle != nullptr) {
    options.*(rule.toggle) = true;
  }
  for (bool OptimizerOptions::* prereq : rule.prerequisites) {
    options.*prereq = true;
  }
  return options;
}

}  // namespace graft::core
