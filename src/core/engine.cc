#include "core/engine.h"

#include <cstdio>
#include <span>

#include "core/cost_model.h"
#include "core/rewrite_rules.h"
#include "exec/maxscore_topk.h"
#include "ma/reference_evaluator.h"

namespace graft::core {

namespace {

// One execution target: a doc range of the one index — the whole index,
// or one segment of a SegmentedIndex. Every view reads the index's own
// collection statistics (or the overlay), and doc ids stay global.
struct SegmentView {
  const index::InvertedIndex* index;
  const index::StatsOverlay* overlay;
  index::DocRange range;
};

// One top-k physical operator. kTopKOperators is the single top-k dispatch
// table: Search runs the row SelectTopK picks, and Explain names it.
struct TopKOperator {
  const char* id;  // SearchResult::topk_operator
  // Empty when licensed, else the human-readable verdict.
  std::string (*gate)(const mcalc::Query& query,
                      const sa::ScoringScheme& scheme,
                      const index::InvertedIndex& index,
                      const index::StatsOverlay* overlay,
                      const SearchOptions& options);
  // Runs the operator on one view, folding its counters into `stats`.
  StatusOr<std::vector<ma::ScoredDoc>> (*run)(const SegmentView& view,
                                              const mcalc::Query& query,
                                              const sa::ScoringScheme& scheme,
                                              size_t k,
                                              exec::ExecStats* stats);
  const char* applied;  // SearchResult::applied_optimizations
  const char* explain;  // Explain's top-k strategy line
  const char* note;     // suffix of the fired rewrite-table row
};

// Rows are tried in order; the first licensed row runs. Block-max pruning
// (MaxScore) is preferred; HRJN serves what its stricter gate refuses.
const TopKOperator kTopKOperators[] = {
    {"maxscore",
     [](const mcalc::Query& query, const sa::ScoringScheme& scheme,
        const index::InvertedIndex& index, const index::StatsOverlay* overlay,
        const SearchOptions& options) -> std::string {
       if (!exec::TopKRankEngine::Supports(query, scheme)) {
         return "blocked: rank processing not licensed";
       }
       if (!options.allow_block_max_pruning) {
         return "blocked: disabled by request options";
       }
       return exec::MaxScoreTopK::GateVerdict(query, scheme, index, overlay);
     },
     [](const SegmentView& view, const mcalc::Query& query,
        const sa::ScoringScheme& scheme, size_t k,
        exec::ExecStats* stats) -> StatusOr<std::vector<ma::ScoredDoc>> {
       exec::MaxScoreTopK op(view.index, &scheme, view.overlay, view.range);
       auto results = op.TopK(query, k);
       *stats = op.stats();
       return results;
     },
     "block-max pruned top-k", "block-max pruned top-k",
     "; block-max dynamic pruning"},
    {"hrjn",
     [](const mcalc::Query& query, const sa::ScoringScheme& scheme,
        const index::InvertedIndex&, const index::StatsOverlay*,
        const SearchOptions&) -> std::string {
       return exec::TopKRankEngine::Supports(query, scheme)
                  ? ""
                  : "rank processing not licensed";
     },
     [](const SegmentView& view, const mcalc::Query& query,
        const sa::ScoringScheme& scheme, size_t k,
        exec::ExecStats* stats) -> StatusOr<std::vector<ma::ScoredDoc>> {
       exec::TopKRankEngine op(view.index, &scheme, view.overlay, view.range);
       auto results = op.TopK(query, k);
       const exec::RankStats& s = op.stats();
       stats->rank_heap_ops += s.heap_ops;
       stats->topk_sorted_accesses += s.entries_pulled;
       stats->docs_scored += s.candidates_scored;
       stats->docs_pruned += s.entries_pruned();
       return results;
     },
     "rank-join/rank-union (top-k)", "threshold top-k; block-max prune ",
     "; threshold top-k execution"},
};

// Streams a resolved plan on one view: the full-ranking counterpart of
// TopKOperator::run.
StatusOr<std::vector<ma::ScoredDoc>> RunPlan(const SegmentView& view,
                                             const ma::PlanNode& plan,
                                             const sa::ScoringScheme& scheme,
                                             const sa::QueryContext& query_ctx,
                                             exec::ExecStats* stats) {
  exec::Executor executor(view.index, &scheme, query_ctx, view.overlay,
                          view.range);
  auto results = executor.ExecuteRanked(plan);
  *stats = executor.stats();
  return results;
}

// Adds the calling thread's decoded-block cache traffic since `before` to
// `stats`, so EXPLAIN ANALYZE and /stats attribute cache traffic per query.
void HarvestBlockCache(const index::BlockCacheTls& before,
                       exec::ExecStats* stats) {
  const index::BlockCacheTls& after = index::TlsBlockCacheCounters();
  stats->block_cache_hits += after.hits - before.hits;
  stats->block_cache_misses += after.misses - before.misses;
  stats->block_cache_evictions += after.evictions - before.evictions;
  stats->packed_payload_decodes +=
      after.payload_decodes - before.payload_decodes;
}

// SelectTopK's verdict: the operator to run, or null for full ranking +
// truncate, and the gate verdict that explains the choice.
struct TopKChoice {
  const TopKOperator* op = nullptr;
  // The last refusing row's verdict: with an operator, why the block-max
  // row stood down ("" when it runs); without, why HRJN did not run.
  std::string verdict;

  bool pruned() const {
    return op != nullptr && std::string_view(op->id) == "maxscore";
  }
};

// The one place a top-k operator is chosen; Search and Explain share it.
TopKChoice SelectTopK(const mcalc::Query& query,
                      const sa::ScoringScheme& scheme,
                      const SearchOptions& options,
                      const index::InvertedIndex& index,
                      const index::StatsOverlay* overlay) {
  TopKChoice choice;
  if (options.top_k == 0 || !options.allow_rank_processing) {
    return choice;
  }
  for (const TopKOperator& op : kTopKOperators) {
    std::string verdict = op.gate(query, scheme, index, overlay, options);
    if (verdict.empty()) {
      choice.op = &op;
      break;
    }
    choice.verdict = std::move(verdict);
  }
  return choice;
}

// Explain's "top-k strategy" line for a choice.
std::string TopKExplainLine(const TopKChoice& choice,
                            const SearchOptions& options) {
  if (!options.allow_rank_processing) {
    return "full ranking + truncate (rank processing disabled)";
  }
  if (choice.op == nullptr) {
    return "full ranking + truncate (" + choice.verdict + ")";
  }
  return choice.op->explain + choice.verdict;
}

// Stamps one count per fired rewrite rule (registry order) into the
// result's ExecStats — the per-rule counters /metrics aggregates.
void StampRuleCounters(SearchResult* result) {
  const auto& rules = RewriteRuleRegistry::Global().All();
  for (const RewriteAttempt& attempt : result->rewrite_attempts) {
    if (!attempt.fired) continue;
    for (size_t i = 0; i < rules.size() && i < exec::ExecStats::kMaxRules;
         ++i) {
      if (rules[i].opt == attempt.opt) {
        ++result->exec_stats.rule_fired[i];
        break;
      }
    }
  }
}

// Rewrite-attempt table for the rank-processing path, where the optimizer
// never runs: the gate verdicts are still what admitted rank processing,
// so EXPLAIN ANALYZE and ?explain=1 stay complete on this path too. The
// block-max row fires when the pruned operator ran; otherwise it carries
// the choice's verdict on why it stood down.
std::vector<RewriteAttempt> RankPathAttempts(const mcalc::Query& query,
                                             const sa::ScoringScheme& scheme,
                                             const TopKChoice& choice) {
  const bool pruned = choice.pruned();
  const Optimization fired_opt = query.root->kind == mcalc::NodeKind::kOr
                                     ? Optimization::kRankUnion
                                     : Optimization::kRankJoin;
  std::vector<RewriteAttempt> attempts;
  for (const Optimization opt : kAllOptimizations) {
    RewriteAttempt attempt;
    attempt.opt = opt;
    if (opt == Optimization::kBlockMaxPruning || opt == fired_opt) {
      attempt.fired = (opt == Optimization::kBlockMaxPruning) == pruned;
      if (attempt.fired) {
        attempt.verdict = "gate ok: " +
                          ExplainGate(opt, scheme.properties()).reason +
                          choice.op->note;
      } else {
        attempt.verdict = pruned ? "superseded by block-max pruned top-k"
                                 : choice.verdict;
      }
    } else {
      attempt.verdict = "not attempted (rank processing path)";
    }
    attempts.push_back(std::move(attempt));
  }
  return attempts;
}

}  // namespace

std::string FormatExecStats(const exec::ExecStats& s) {
  // Line titles, by exec::ExecLine; the untitled lines always print.
  static constexpr const char* kTitles[] = {"", "", "rank: ", "pruning: ",
                                            "block_cache: "};
  static_assert(std::size(kTitles) ==
                static_cast<size_t>(exec::ExecLine::kBlockCache) + 1);
  std::string out;
  const std::span<const exec::ExecCounter> rows(exec::kExecCounters);
  for (size_t i = 0; i < rows.size();) {
    const exec::ExecLine line = rows[i].line;
    const char* title = kTitles[static_cast<size_t>(line)];
    bool any = *title == '\0';
    std::string fields;
    for (; i < rows.size() && rows[i].line == line; ++i) {
      const uint64_t value = s.*rows[i].member;
      any = any || value != 0;
      if (!fields.empty()) fields += ' ';
      fields += rows[i].label != nullptr ? rows[i].label : rows[i].name;
      fields += '=' + std::to_string(value);
    }
    if (any) out += "  " + std::string(title) + fields + "\n";
  }
  std::string rules;
  const auto& catalog = RewriteRuleRegistry::Global().All();
  for (size_t i = 0; i < catalog.size() && i < exec::ExecStats::kMaxRules;
       ++i) {
    if (s.rule_fired[i] == 0) continue;
    if (!rules.empty()) rules += " ";
    rules += catalog[i].id + "=" + std::to_string(s.rule_fired[i]);
  }
  if (!rules.empty()) {
    out += "  rules_fired: " + rules + "\n";
  }
  return out;
}

Engine::Engine(const index::InvertedIndex* index,
               const index::SegmentedIndex* segmented, size_t pool_threads)
    : index_(index), pool_(std::make_unique<common::ThreadPool>(pool_threads)) {
  if (segmented != nullptr) {
    segmented_ = *segmented;
  }
}

StatusOr<const sa::ScoringScheme*> Engine::ResolveScheme(
    std::string_view name) const {
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup(name);
  if (scheme == nullptr) {
    return Status::NotFound("unknown scoring scheme: " + std::string(name));
  }
  return scheme;
}

StatusOr<SearchResult> Engine::Search(std::string_view query_text,
                                      std::string_view scheme_name,
                                      const SearchOptions& options) const {
  SearchOptions opts = options;
  // When the global tracer is on and the caller did not supply a trace,
  // trace into a local one and publish it to the ring on completion.
  common::QueryTrace ring_trace;
  const bool record_global =
      opts.trace == nullptr && common::Tracer::Global().enabled();
  if (record_global) {
    opts.trace = &ring_trace;
  }

  common::ScopedSpan parse_span(opts.trace, "parse");
  GRAFT_ASSIGN_OR_RETURN(mcalc::Query query, mcalc::ParseQuery(query_text));
  parse_span.End();
  GRAFT_ASSIGN_OR_RETURN(const sa::ScoringScheme* scheme,
                         ResolveScheme(scheme_name));
  auto result = SearchQuery(query, *scheme, opts);
  if (record_global) {
    common::Tracer::Global().Record(std::string(query_text), ring_trace);
  }
  return result;
}

StatusOr<SearchResult> Engine::SearchQuery(const mcalc::Query& query,
                                           const sa::ScoringScheme& scheme,
                                           const SearchOptions& options) const {
  const bool fan_out = segmented_.has_value() && options.use_segmented &&
                       !options.use_canonical_reference;
  const index::StatsOverlay* overlay = EffectiveOverlay(options);

  SearchResult result;
  common::QueryTrace* trace = options.trace;
  const sa::QueryContext query_ctx = MakeQueryContext(query);

  if (options.use_canonical_reference) {
    common::ScopedSpan canonical_span(trace, "canonical-evaluate");
    GRAFT_ASSIGN_OR_RETURN(CanonicalBuild canonical,
                           BuildCanonicalPlan(query, scheme));
    GRAFT_RETURN_IF_ERROR(ma::ResolvePlan(canonical.plan.get(), *index_));
    const index::BlockCacheTls before = index::TlsBlockCacheCounters();
    ma::ReferenceEvaluator evaluator(index_, &scheme, query_ctx, overlay);
    GRAFT_ASSIGN_OR_RETURN(const ma::MatchTable table,
                           evaluator.Evaluate(*canonical.plan));
    HarvestBlockCache(before, &result.exec_stats);
    GRAFT_ASSIGN_OR_RETURN(result.results, ma::ExtractRankedResults(table));
    result.plan_text = ma::PlanToString(*canonical.plan);
    result.applied_optimizations = "(canonical score-isolated plan)";
    if (options.top_k > 0 && result.results.size() > options.top_k) {
      result.results.resize(options.top_k);
    }
    return result;
  }

  // A monolithic query is one view of the whole index; a fanned-out query
  // is one view per segment range. Every view reads the one index's
  // statistics (and the overlay, keyed by global doc ids), so every
  // document's score is bit-identical to the monolithic run.
  std::vector<SegmentView> views;
  if (fan_out) {
    for (size_t i = 0; i < segmented_->segment_count(); ++i) {
      views.push_back({index_, overlay, segmented_->segment(i)});
    }
  } else {
    views.push_back({index_, overlay, index::DocRange{}});
  }
  const size_t n = views.size();

  // Top-k rank processing runs the chosen operator on every view; each
  // view's top-k is exact for its documents, so the merge below is exact.
  // Otherwise optimize ONCE against the whole index and stream the plan on
  // every view.
  const TopKChoice topk =
      SelectTopK(query, scheme, options, *index_, overlay);
  OptimizedPlan plan;
  if (topk.op == nullptr) {
    Optimizer optimizer(&scheme, options.optimizer);
    common::ScopedSpan optimize_span(trace, "optimize");
    GRAFT_ASSIGN_OR_RETURN(plan, optimizer.Optimize(query, *index_, trace));
    optimize_span.End("applied: " + plan.AppliedToString());
  }

  // Per-view output slots: distinct indexes, no locking needed; the
  // ParallelFor latch publishes all writes to this thread. A single view
  // runs inline on the calling thread.
  std::vector<Status> statuses(n, Status::Ok());
  std::vector<std::vector<ma::ScoredDoc>> partials(n);
  std::vector<exec::ExecStats> stats(n);
  common::ScopedSpan run_span(trace, topk.op != nullptr ? "rank" : "execute",
                              "segments=" + std::to_string(n));
  common::ParallelFor(pool_.get(), options.num_threads, n, [&](size_t i) {
    common::ScopedSpan segment_span(trace, "segment " + std::to_string(i));
    const SegmentView& view = views[i];
    // Packed postings decode through the shared block cache on whichever
    // thread runs the view; harvest that thread's traffic into the view.
    const index::BlockCacheTls before = index::TlsBlockCacheCounters();
    StatusOr<std::vector<ma::ScoredDoc>> local =
        topk.op != nullptr
            ? topk.op->run(view, query, scheme, options.top_k, &stats[i])
            : RunPlan(view, *plan.plan, scheme, query_ctx, &stats[i]);
    HarvestBlockCache(before, &stats[i]);
    if (!local.ok()) {
      statuses[i] = local.status();
      return;
    }
    partials[i] = std::move(local).value();
  });
  for (const Status& status : statuses) {
    GRAFT_RETURN_IF_ERROR(status);
  }
  run_span.End();

  common::ScopedSpan merge_span(trace, "merge");
  result.results = ma::MergeRanked(std::move(partials), options.top_k);
  merge_span.End("results=" + std::to_string(result.results.size()));

  const std::string fan_out_suffix =
      fan_out ? ", segmented ×" + std::to_string(n) : "";
  result.segments_searched = n;
  if (topk.op != nullptr) {
    result.used_rank_processing = true;
    result.used_block_max_pruning = topk.pruned();
    result.topk_operator = topk.op->id;
    result.applied_optimizations = topk.op->applied + fan_out_suffix;
    result.rewrite_attempts = RankPathAttempts(query, scheme, topk);
  } else {
    result.plan_text = ma::PlanToString(*plan.plan);
    result.applied_optimizations = plan.AppliedToString() + fan_out_suffix;
    result.rewrite_attempts = std::move(plan.attempts);
  }
  for (const exec::ExecStats& view_stats : stats) {
    result.exec_stats.Accumulate(view_stats);
  }
  StampRuleCounters(&result);
  return result;
}

StatusOr<std::string> Engine::Explain(std::string_view query_text,
                                      std::string_view scheme_name,
                                      const SearchOptions& options) const {
  GRAFT_ASSIGN_OR_RETURN(mcalc::Query query, mcalc::ParseQuery(query_text));
  GRAFT_ASSIGN_OR_RETURN(const sa::ScoringScheme* scheme,
                         ResolveScheme(scheme_name));
  return ExplainQuery(query, *scheme, options);
}

StatusOr<std::string> Engine::ExplainQuery(const mcalc::Query& query,
                                           const sa::ScoringScheme& scheme,
                                           const SearchOptions& options) const {
  Optimizer optimizer(&scheme, options.optimizer);
  GRAFT_ASSIGN_OR_RETURN(OptimizedPlan plan,
                         optimizer.Optimize(query, *index_));
  std::string out = "query: " + mcalc::ToMCalcString(query) + "\n";
  out += "scoring plan Φ: " + plan.phi->ToString() + "\n";
  out += "scheme: " + std::string(scheme.name()) + " (" +
         sa::DirectionName(scheme.properties().direction) + ")\n";
  out += "applied: " + plan.AppliedToString() + "\n";
  if (options.top_k > 0) {
    // Deterministic top-k strategy verdict (golden-snapshot friendly):
    // which top-k execution path SearchQuery takes, and why.
    const TopKChoice topk = SelectTopK(query, scheme, options, *index_,
                                       EffectiveOverlay(options));
    out += "top-k strategy (k=" + std::to_string(options.top_k) +
           "): " + TopKExplainLine(topk, options) + "\n";
  }
  out += "rewrites:\n" + FormatRewriteAttempts(plan.attempts);
  if (plan.plan != nullptr) {
    const CostEstimate estimate = CostModel(index_).Estimate(*plan.plan);
    char line[96];
    std::snprintf(line, sizeof(line),
                  "cost estimate: docs=%.1f rows=%.1f cost=%.1f\n",
                  estimate.docs, estimate.rows, estimate.cost);
    out += line;
    out += ma::PlanToString(*plan.plan);
  }
  return out;
}

StatusOr<std::string> Engine::ExplainAnalyze(
    std::string_view query_text, std::string_view scheme_name,
    const SearchOptions& options) const {
  GRAFT_ASSIGN_OR_RETURN(std::string out,
                         Explain(query_text, scheme_name, options));

  // Execute under a local trace (chaining to any caller-supplied one
  // would double-count spans; EXPLAIN ANALYZE owns its trace).
  common::QueryTrace trace;
  SearchOptions opts = options;
  opts.trace = &trace;
  GRAFT_ASSIGN_OR_RETURN(SearchResult result,
                         Search(query_text, scheme_name, opts));

  out += "-- analyze --\n";
  out += "executed: " + result.applied_optimizations + "\n";
  out += "segments searched: " + std::to_string(result.segments_searched) +
         "\n";
  if (result.used_rank_processing) {
    out += "rank processing rewrites:\n" +
           FormatRewriteAttempts(result.rewrite_attempts);
  }
  out += "results: " + std::to_string(result.results.size()) + "\n";
  out += "measured operator work:\n" + FormatExecStats(result.exec_stats);
  out += "trace:\n" + trace.ToText();
  return out;
}

}  // namespace graft::core
