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

// Streams a resolved plan on one view: the full-ranking counterpart of
// RunTopK.
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

// SelectTopK's verdict: whether MaxScore runs, with which bounds, and the
// gate verdict that explains the choice.
struct TopKChoice {
  bool rank = false;       // MaxScoreTopK runs; else full ranking + truncate
  bool block_max = false;  // with per-block ceilings; else term bounds only
  // Without rank processing, why it did not run; with term bounds, why
  // block-max pruning stood down; "" under block-max pruning.
  std::string verdict;
};

// The one place the top-k path is chosen; Search and Explain share it.
TopKChoice SelectTopK(const mcalc::Query& query,
                      const sa::ScoringScheme& scheme,
                      const SearchOptions& options,
                      const index::StatsOverlay* overlay) {
  TopKChoice choice;
  if (options.top_k == 0 || !options.allow_rank_processing) {
    return choice;
  }
  if (!exec::MaxScoreTopK::Supports(query, scheme, /*overlay=*/nullptr)) {
    choice.verdict = "rank processing not licensed";
    return choice;
  }
  // A licensed query still falls back to full ranking under an overlay
  // that overrides a per-document statistic: no stored bound holds there.
  choice.verdict = exec::MaxScoreTopK::GateVerdict(query, scheme, overlay);
  if (!choice.verdict.empty()) {
    return choice;
  }
  choice.rank = true;
  choice.block_max = options.allow_block_max_pruning;
  if (!choice.block_max) {
    choice.verdict = "blocked: disabled by request options";
  }
  return choice;
}

// Runs MaxScore on one view, folding its counters into `stats`.
StatusOr<std::vector<ma::ScoredDoc>> RunTopK(const SegmentView& view,
                                             const mcalc::Query& query,
                                             const sa::ScoringScheme& scheme,
                                             size_t k, bool block_max,
                                             exec::ExecStats* stats) {
  exec::MaxScoreTopK op(view.index, &scheme, view.overlay, view.range,
                        block_max);
  auto results = op.TopK(query, k);
  *stats = op.stats();
  return results;
}

// Explain's "top-k strategy" line for a choice.
std::string TopKExplainLine(const TopKChoice& choice,
                            const SearchOptions& options) {
  if (!options.allow_rank_processing) {
    return "full ranking + truncate (rank processing disabled)";
  }
  if (!choice.rank) {
    return "full ranking + truncate (" + choice.verdict + ")";
  }
  if (choice.block_max) {
    return "block-max pruned top-k";
  }
  return "term-bound top-k; block-max prune " + choice.verdict;
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
// block-max row fires under block-max ceilings; under term bounds the
// rank-join (rank-union) row fires and the block-max row carries the
// choice's verdict on why it stood down.
std::vector<RewriteAttempt> RankPathAttempts(const mcalc::Query& query,
                                             const sa::ScoringScheme& scheme,
                                             const TopKChoice& choice) {
  const bool pruned = choice.block_max;
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
                          (pruned ? "; block-max dynamic pruning"
                                  : "; term-bound top-k execution");
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

  // Top-k rank processing runs MaxScore on every view; each view's top-k
  // is exact for its documents, so the merge below is exact. Otherwise
  // optimize ONCE against the whole index and stream the plan on every
  // view.
  const TopKChoice topk = SelectTopK(query, scheme, options, overlay);
  OptimizedPlan plan;
  if (!topk.rank) {
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
  common::ScopedSpan run_span(trace, topk.rank ? "rank" : "execute",
                              "segments=" + std::to_string(n));
  common::ParallelFor(pool_.get(), options.num_threads, n, [&](size_t i) {
    common::ScopedSpan segment_span(trace, "segment " + std::to_string(i));
    const SegmentView& view = views[i];
    // Packed postings decode through the shared block cache on whichever
    // thread runs the view; harvest that thread's traffic into the view.
    const index::BlockCacheTls before = index::TlsBlockCacheCounters();
    StatusOr<std::vector<ma::ScoredDoc>> local =
        topk.rank ? RunTopK(view, query, scheme, options.top_k,
                            topk.block_max, &stats[i])
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
  if (topk.rank) {
    result.used_rank_processing = true;
    result.used_block_max_pruning = topk.block_max;
    result.applied_optimizations =
        (topk.block_max ? "block-max pruned top-k"
                        : "rank-join/rank-union (top-k)") +
        fan_out_suffix;
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
    const TopKChoice topk =
        SelectTopK(query, scheme, options, EffectiveOverlay(options));
    out += "top-k strategy (k=" + std::to_string(options.top_k) +
           "): " + TopKExplainLine(topk, options) + "\n";
  }
  out += "rewrites:\n" + FormatRewriteAttempts(plan.attempts);
  if (plan.plan != nullptr) {
    // The estimate of the counters on EXPLAIN ANALYZE's scan line, under
    // their names.
    const CostEstimate e = CostModel(index_).Estimate(*plan.plan);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "cost estimate: docs_visited=%.1f rows_built=%.1f "
                  "positions_scanned=%.1f count_entries_scanned=%.1f\n",
                  e.docs_visited, e.rows_built, e.positions_scanned,
                  e.count_entries_scanned);
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
