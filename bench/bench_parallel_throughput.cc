// Parallel query throughput: segment count × worker count sweep over the
// paper's evaluation queries (Section 8), reporting QPS and p50/p99
// latency per configuration, for full evaluation and for top-k=10.
//
// Emits BENCH_parallel_throughput.json in the working directory, then runs
// the block-max pruning sweep (pruned vs unpruned top-k over pure keyword
// queries, monolithic engine) and emits BENCH_topk_pruning.json with QPS
// for both modes, the skip counters, and docs scored — the artifact CI
// uploads to show pruning actually skips blocks without slowing the
// unpruned path. Its pruned and unpruned runs are the engine's one top-k
// operator, MaxScore, with block-max ceilings and with term bounds only
// (allow_block_max_pruning = false), checked bit-identical against each
// other.
//
// Trace-overhead guard mode (GRAFT_BENCH_TRACE_OVERHEAD=1): instead of the
// sweep, measures the observability layer's cost and emits
// BENCH_trace_overhead.json.
//
// The enforced claim is the one trace.h makes: tracing *compiled in but
// disabled* (the production default) costs <2% QPS. QPS A/B cannot verify
// that in one binary — both arms pay the identical disabled-path cost, so
// their delta is definitionally noise. Instead the guard microbenchmarks
// the actual disabled hot path (a null-QueryTrace ScopedSpan per
// instrumentation point), scales it by a
// realistic spans-per-query count, and bounds it against the measured
// per-query latency. If someone later puts allocation or locking on the
// disabled path, the per-op cost jumps by orders of magnitude and the
// bound trips deterministically — no flaky QPS comparison involved.
//
// The *enabled* layer is measured honestly and reported (not enforced):
//   off   tracing disabled — the baseline arm,
//   span  caller-supplied QueryTrace per query (EXPLAIN ANALYZE's cost),
//   off2  A/A repeat of `off` — its delta vs `off` is the run's noise
//         floor, printed next to span so readers can judge it.
//
// With GRAFT_BENCH_ENFORCE=1 the process exits non-zero when the
// disabled-path bound is violated (the CI regression guard).
//
// Environment:
//   GRAFT_BENCH_DOCS            corpus size (default 30000)
//   GRAFT_BENCH_PAR_ROUNDS      rounds over the 8-query mix per
//                               configuration (default 5; raise for
//                               tighter tails; trace mode multiplies by 4)
//   GRAFT_BENCH_TRACE_OVERHEAD  1 = trace-overhead guard mode
//   GRAFT_BENCH_ENFORCE         1 = exit 1 when the 2% bound is violated
//
// Scores are segment-count-invariant (the parallel_consistency tests pin
// this down bit-for-bit), so every configuration does identical scoring
// work; the sweep isolates partitioning + scheduling + merge effects.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/trace.h"
#include "core/engine.h"
#include "index/segmented_index.h"

namespace {

struct ConfigResult {
  size_t segments;
  size_t workers;
  std::string mode;  // "full" or "topk10"
  double qps;
  double p50_ms;
  double p99_ms;
  size_t samples;
};

double Percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted_ms.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac;
}

size_t Rounds() {
  const char* env = std::getenv("GRAFT_BENCH_PAR_ROUNDS");
  if (env != nullptr) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 5;
}

// ---- Trace-overhead guard mode -------------------------------------------

struct TraceModeResult {
  const char* mode;
  double qps;
  double p50_ms;
  double p99_ms;
  size_t samples;
};

// Times the disabled-tracing hot path directly: a ScopedSpan over a null
// QueryTrace — exactly what every instrumentation point in the engine
// executes when tracing is off. Returns average nanoseconds per
// instrumentation point.
double MeasureDisabledPathNanos() {
  constexpr size_t kOps = 4'000'000;
  size_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kOps; ++i) {
    graft::common::ScopedSpan span(nullptr, "probe");
    // Keep the loop and the span object observable so the compiler cannot
    // delete the measured work.
    asm volatile("" : "+r"(sink) : "r"(&span) : "memory");
  }
  const double total_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count();
  return total_ns / static_cast<double>(kOps);
}

// Runs the paper query mix with the observability layer in each of three
// modes, interleaved pass-by-pass so clock drift / thermal effects hit all
// modes equally. "off" and "off2" are identical configurations — their QPS
// difference is the run's noise floor, printed next to the deltas so a
// flaky violation is distinguishable from a real regression.
int RunTraceOverheadMode(const graft::index::InvertedIndex& index,
                         size_t rounds) {
  using namespace graft;
  core::Engine engine(&index);
  const char* scheme = "Lucene";
  constexpr const char* kModes[] = {"off", "span", "off2"};
  // 4 interleaved passes per round keeps total wall time comparable to one
  // sweep configuration.
  const size_t passes = rounds * 4;

  // Warm-up (index pages, score-stream caches) with tracing off.
  for (const bench::PaperQuery& q : bench::kPaperQueries) {
    auto r = engine.Search(q.text, scheme, core::SearchOptions{});
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", q.name,
                   r.status().ToString().c_str());
      return 1;
    }
  }

  std::vector<double> latencies[std::size(kModes)];
  double total_s[std::size(kModes)] = {};
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t m = 0; m < std::size(kModes); ++m) {
      const bool span = std::string(kModes[m]) == "span";
      // Repeat the mix within one timed pass so each pass is tens of
      // milliseconds — short passes drown the signal in scheduler jitter
      // (visible as a large A/A noise figure).
      constexpr size_t kMixRepeats = 20;
      const auto pass_start = std::chrono::steady_clock::now();
      for (size_t rep = 0; rep < kMixRepeats; ++rep) {
        for (const bench::PaperQuery& q : bench::kPaperQueries) {
          core::SearchOptions options;
          common::QueryTrace trace;
          if (span) options.trace = &trace;
          const auto start = std::chrono::steady_clock::now();
          auto r = engine.Search(q.text, scheme, options);
          const auto end = std::chrono::steady_clock::now();
          if (!r.ok()) return 1;
          latencies[m].push_back(
              std::chrono::duration<double, std::milli>(end - start)
                  .count());
        }
      }
      total_s[m] += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - pass_start)
                        .count();
    }
  }

  TraceModeResult results[std::size(kModes)];
  std::printf("Trace overhead (%llu docs, scheme %s, %zu passes x %zu "
              "queries per mode)\n",
              static_cast<unsigned long long>(index.doc_count()), scheme,
              passes, std::size(bench::kPaperQueries));
  std::printf("%6s | %10s %10s %10s\n", "mode", "QPS", "p50(ms)",
              "p99(ms)");
  std::printf("---------------------------------------\n");
  for (size_t m = 0; m < std::size(kModes); ++m) {
    std::sort(latencies[m].begin(), latencies[m].end());
    results[m] = TraceModeResult{
        kModes[m],
        total_s[m] > 0
            ? static_cast<double>(latencies[m].size()) / total_s[m]
            : 0.0,
        Percentile(latencies[m], 0.50), Percentile(latencies[m], 0.99),
        latencies[m].size()};
    std::printf("%6s | %10.1f %10.3f %10.3f\n", results[m].mode,
                results[m].qps, results[m].p50_ms, results[m].p99_ms);
  }

  const double off_qps = results[0].qps;
  const auto delta_pct = [off_qps](double qps) {
    return off_qps > 0 ? (off_qps - qps) / off_qps * 100.0 : 0.0;
  };
  const double span_delta = delta_pct(results[1].qps);
  const double noise = std::fabs(delta_pct(results[2].qps));
  std::printf("\nenabled-layer cost (informational): span %+.2f%%  "
              "(A/A noise %.2f%%)\n",
              span_delta, noise);

  // The enforced bound: disabled-path cost per query < 2% of query time.
  // A query executes roughly kSpansPerQuery instrumentation points (parse,
  // optimize, one event per catalog rewrite, execute, per-segment, rank,
  // merge); size the per-query cost generously at twice today's count so
  // the bound keeps holding as spans are added.
  constexpr double kSpansPerQuery = 32.0;
  constexpr double kBoundPct = 2.0;
  const double per_op_ns = MeasureDisabledPathNanos();
  const double disabled_ns_per_query = per_op_ns * kSpansPerQuery;
  const double off_query_ns =
      off_qps > 0 ? 1e9 / off_qps : 0.0;
  const double disabled_pct =
      off_query_ns > 0 ? disabled_ns_per_query / off_query_ns * 100.0 : 0.0;
  const bool within = disabled_pct < kBoundPct;
  std::printf("disabled path: %.2f ns/instrumentation point x %.0f "
              "points = %.0f ns/query = %.4f%% of a %.0f ns query "
              "(bound %.1f%%) -> %s\n",
              per_op_ns, kSpansPerQuery, disabled_ns_per_query,
              disabled_pct, off_query_ns, kBoundPct,
              within ? "OK" : "VIOLATED");

  const char* out_path = "BENCH_trace_overhead.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"trace_overhead\",\n"
               "  \"doc_count\": %llu,\n  \"scheme\": \"%s\",\n"
               "  \"passes\": %zu,\n",
               static_cast<unsigned long long>(index.doc_count()), scheme,
               passes);
  bench::WriteHostParallelismFields(out, /*max_parallel=*/1);
  std::fprintf(out, "  \"modes\": [\n");
  for (size_t m = 0; m < std::size(kModes); ++m) {
    const TraceModeResult& r = results[m];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"qps\": %.2f, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"samples\": %zu}%s\n",
                 r.mode, r.qps, r.p50_ms, r.p99_ms, r.samples,
                 m + 1 < std::size(kModes) ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"span_delta_pct\": %.3f,\n  \"aa_noise_pct\": %.3f,\n"
               "  \"disabled_ns_per_point\": %.3f,\n"
               "  \"disabled_points_per_query\": %.0f,\n"
               "  \"disabled_pct_of_query\": %.5f,\n"
               "  \"bound_pct\": %.1f,\n  \"within_bound\": %s\n}\n",
               span_delta, noise, per_op_ns, kSpansPerQuery,
               disabled_pct, kBoundPct, within ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);

  const char* enforce = std::getenv("GRAFT_BENCH_ENFORCE");
  if (!within && enforce != nullptr && std::string(enforce) != "0") {
    std::fprintf(stderr,
                 "disabled-tracing overhead bound violated "
                 "(%.4f%% >= %.1f%% of query time)\n",
                 disabled_pct, kBoundPct);
    return 1;
  }
  return 0;
}

// ---- Block-max pruning sweep ---------------------------------------------

// Pure keyword conjunctions/disjunctions — the only shapes the pruning
// gate admits. Phrases, windows, and mixed nesting fall back to the
// threshold engine regardless, so measuring them here would only dilute
// the signal.
struct PruningQuery {
  const char* name;
  const char* text;
};
constexpr PruningQuery kPruningQueries[] = {
    {"PK1", "san francisco fault line"},
    {"PK2", "dinosaur species list"},
    {"PK3", "image | picture | drawing | illustration"},
    {"PK4", "fishing | hunting | rules | regulations"},
    {"PK5", "windows emulator"},
    // Mid-frequency filler vocabulary: long posting lists (hundreds of
    // blocks) whose per-block max tf varies 1..4, the regime where whole-
    // block ceiling skips actually fire. The planted paper terms above
    // occur once per doc (uniform tf 1), so they exercise candidate
    // pruning but rarely block skips.
    {"PK6", "city"},
    {"PK7", "city state"},
    {"PK8", "city | state | world"},
};

struct PruningResult {
  const char* scheme;
  const char* name;
  size_t k;
  double pruned_qps;
  double unpruned_qps;
  uint64_t blocks_skipped;
  uint64_t blocks_decoded;  // distinct blocks the pruned operator read
  uint64_t blocks_total;    // Σ block_count over the query's term lists —
                            // what an exhaustive scan decodes
  uint64_t ceiling_probes;
  uint64_t docs_scored_pruned;
  uint64_t docs_scored_unpruned;
};

int RunPruningSweep(const graft::index::InvertedIndex& index) {
  using namespace graft;
  core::Engine engine(&index);
  // Both licensed non-positional schemes: AnySum's saturating BM25 gives
  // tight block ceilings; Lucene's sqrt(tf) bound is looser, so the pair
  // brackets the pruning payoff.
  constexpr const char* kSchemes[] = {"AnySum", "Lucene"};

  // Posting blocks an exhaustive scan decodes for this query: every block
  // of every term list.
  const auto total_blocks = [&](const char* text) {
    uint64_t blocks = 0;
    std::istringstream in(text);
    std::string tok;
    while (in >> tok) {
      if (tok == "|") continue;
      const TermId term = index.LookupTerm(tok);
      if (term != kInvalidTerm) {
        blocks += index.postings(term).block_count();
      }
    }
    return blocks;
  };

  std::vector<PruningResult> results;
  std::printf("\nBlock-max pruning sweep (monolithic)\n");
  std::printf("%8s %5s %5s | %12s %12s %8s | %8s %8s %8s %10s %10s\n",
              "scheme", "query", "k", "pruned QPS", "unpruned", "delta",
              "blk skip", "blk dec", "blk tot", "scored(p)", "scored(u)");
  std::printf("-------------------------------------------------------------"
              "--------------------------------------------\n");

  for (const char* scheme : kSchemes) {
  for (const PruningQuery& q : kPruningQueries) {
    for (const size_t k : {size_t{10}, size_t{100}}) {
      core::SearchOptions pruned_opts;
      pruned_opts.top_k = k;
      core::SearchOptions unpruned_opts = pruned_opts;
      unpruned_opts.allow_block_max_pruning = false;

      // One instrumented run per mode for the counters (and to verify the
      // pruned plan actually fired).
      auto pruned = engine.Search(q.text, scheme, pruned_opts);
      auto unpruned = engine.Search(q.text, scheme, unpruned_opts);
      if (!pruned.ok() || !unpruned.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", q.name,
                     (!pruned.ok() ? pruned.status() : unpruned.status())
                         .ToString()
                         .c_str());
        return 1;
      }
      if (!pruned->used_block_max_pruning) {
        std::fprintf(stderr,
                     "%s: pruning did not fire (gate regression?)\n",
                     q.name);
        return 1;
      }
      // Pruning is score-safe: the two top-k lists must match
      // bit-for-bit. A cheap guard here catches soundness regressions in
      // the artifact itself, not just in the test suite.
      if (pruned->results.size() != unpruned->results.size()) {
        std::fprintf(stderr, "%s: pruned/unpruned size mismatch\n", q.name);
        return 1;
      }
      for (size_t i = 0; i < pruned->results.size(); ++i) {
        if (pruned->results[i].score != unpruned->results[i].score) {
          std::fprintf(stderr, "%s: score mismatch at rank %zu\n", q.name,
                       i);
          return 1;
        }
      }

      PruningResult r;
      r.scheme = scheme;
      r.name = q.name;
      r.k = k;
      r.blocks_skipped = pruned->exec_stats.topk_blocks_skipped;
      r.blocks_decoded = pruned->exec_stats.topk_blocks_decoded;
      r.blocks_total = total_blocks(q.text);
      r.ceiling_probes = pruned->exec_stats.topk_ceiling_probes;
      r.docs_scored_pruned = pruned->exec_stats.docs_scored;
      r.docs_scored_unpruned = unpruned->exec_stats.docs_scored;
      const double pruned_s = bench::MeasureSeconds([&] {
        auto res = engine.Search(q.text, scheme, pruned_opts);
        if (!res.ok()) std::abort();
      });
      const double unpruned_s = bench::MeasureSeconds([&] {
        auto res = engine.Search(q.text, scheme, unpruned_opts);
        if (!res.ok()) std::abort();
      });
      r.pruned_qps = pruned_s > 0 ? 1.0 / pruned_s : 0.0;
      r.unpruned_qps = unpruned_s > 0 ? 1.0 / unpruned_s : 0.0;
      results.push_back(r);
      const double delta_pct =
          r.unpruned_qps > 0
              ? (r.pruned_qps - r.unpruned_qps) / r.unpruned_qps * 100.0
              : 0.0;
      std::printf("%8s %5s %5zu | %12.1f %12.1f %+7.1f%% | %8llu %8llu "
                  "%8llu %10llu %10llu\n",
                  r.scheme, r.name, r.k, r.pruned_qps, r.unpruned_qps,
                  delta_pct,
                  static_cast<unsigned long long>(r.blocks_skipped),
                  static_cast<unsigned long long>(r.blocks_decoded),
                  static_cast<unsigned long long>(r.blocks_total),
                  static_cast<unsigned long long>(r.docs_scored_pruned),
                  static_cast<unsigned long long>(r.docs_scored_unpruned));
    }
  }
  }

  // The artifact's headline claim, enforced so a ceiling regression fails
  // CI instead of silently uploading a JSON full of zeros: at top-10 the
  // pruned operator must decode fewer posting blocks than an exhaustive
  // scan (which reads every block) and must land whole-block skips.
  uint64_t k10_decoded = 0;
  uint64_t k10_total = 0;
  uint64_t k10_skips = 0;
  for (const PruningResult& r : results) {
    if (r.k != 10) continue;
    k10_decoded += r.blocks_decoded;
    k10_total += r.blocks_total;
    k10_skips += r.blocks_skipped;
  }
  if (k10_decoded >= k10_total) {
    std::fprintf(stderr,
                 "top-10 pruned runs decoded %llu of %llu posting blocks — "
                 "no decode reduction over an exhaustive scan\n",
                 static_cast<unsigned long long>(k10_decoded),
                 static_cast<unsigned long long>(k10_total));
    return 1;
  }
  if (k10_skips == 0) {
    std::fprintf(stderr,
                 "no top-10 run skipped a single block — the ceilings have "
                 "gone loose (frontier regression?)\n");
    return 1;
  }
  std::printf("top-10 decode: %llu of %llu posting blocks (%llu whole-block "
              "skips)\n",
              static_cast<unsigned long long>(k10_decoded),
              static_cast<unsigned long long>(k10_total),
              static_cast<unsigned long long>(k10_skips));

  const char* out_path = "BENCH_topk_pruning.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"topk_pruning\",\n"
               "  \"doc_count\": %llu,\n",
               static_cast<unsigned long long>(index.doc_count()));
  bench::WriteHostParallelismFields(out, /*max_parallel=*/1);
  std::fprintf(out, "  \"queries\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const PruningResult& r = results[i];
    std::fprintf(
        out,
        "    {\"scheme\": \"%s\", \"query\": \"%s\", \"k\": %zu, "
        "\"pruned_qps\": %.2f, "
        "\"unpruned_qps\": %.2f, \"blocks_skipped\": %llu, "
        "\"blocks_decoded_pruned\": %llu, \"blocks_total\": %llu, "
        "\"ceiling_probes\": %llu, \"docs_scored_pruned\": %llu, "
        "\"docs_scored_unpruned\": %llu}%s\n",
        r.scheme, r.name, r.k, r.pruned_qps, r.unpruned_qps,
        static_cast<unsigned long long>(r.blocks_skipped),
        static_cast<unsigned long long>(r.blocks_decoded),
        static_cast<unsigned long long>(r.blocks_total),
        static_cast<unsigned long long>(r.ceiling_probes),
        static_cast<unsigned long long>(r.docs_scored_pruned),
        static_cast<unsigned long long>(r.docs_scored_unpruned),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace

int main() {
  using namespace graft;
  const index::InvertedIndex& index = bench::SharedBenchIndex();
  const size_t rounds = Rounds();
  const char* trace_mode = std::getenv("GRAFT_BENCH_TRACE_OVERHEAD");
  if (trace_mode != nullptr && std::string(trace_mode) != "0") {
    return RunTraceOverheadMode(index, rounds);
  }
  constexpr size_t kSegmentCounts[] = {1, 2, 4, 8};
  constexpr size_t kWorkerCounts[] = {1, 2, 4};
  const char* scheme = "Lucene";

  std::vector<ConfigResult> results;
  std::printf("Parallel throughput sweep (%llu docs, scheme %s, %zu rounds "
              "x %zu queries)\n",
              static_cast<unsigned long long>(index.doc_count()), scheme,
              rounds, std::size(bench::kPaperQueries));
  std::printf("%9s %8s %7s | %10s %10s %10s\n", "segments", "workers",
              "mode", "QPS", "p50(ms)", "p99(ms)");
  std::printf("--------------------------------------------------------\n");

  for (const size_t segments : kSegmentCounts) {
    auto segmented = index::SegmentedIndex::BuildFromMonolithic(index,
                                                               segments);
    if (!segmented.ok()) {
      std::fprintf(stderr, "segmentation failed: %s\n",
                   segmented.status().ToString().c_str());
      return 1;
    }
    // One pool sized for the largest worker count; SearchOptions caps the
    // per-query concurrency below that.
    const size_t max_workers =
        *std::max_element(std::begin(kWorkerCounts), std::end(kWorkerCounts));
    core::Engine engine(&index, &*segmented, max_workers - 1);

    for (const size_t workers : kWorkerCounts) {
      for (const bool topk : {false, true}) {
        core::SearchOptions options;
        options.num_threads = workers;
        options.top_k = topk ? 10 : 0;

        // Warm-up pass (index pages, score-stream caches).
        for (const bench::PaperQuery& q : bench::kPaperQueries) {
          auto r = engine.Search(q.text, scheme, options);
          if (!r.ok()) {
            std::fprintf(stderr, "%s failed: %s\n", q.name,
                         r.status().ToString().c_str());
            return 1;
          }
        }

        std::vector<double> latencies_ms;
        latencies_ms.reserve(rounds * std::size(bench::kPaperQueries));
        const auto sweep_start = std::chrono::steady_clock::now();
        for (size_t round = 0; round < rounds; ++round) {
          for (const bench::PaperQuery& q : bench::kPaperQueries) {
            const auto start = std::chrono::steady_clock::now();
            auto r = engine.Search(q.text, scheme, options);
            const auto end = std::chrono::steady_clock::now();
            if (!r.ok()) return 1;
            latencies_ms.push_back(
                std::chrono::duration<double, std::milli>(end - start)
                    .count());
          }
        }
        const double total_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          sweep_start)
                .count();
        std::sort(latencies_ms.begin(), latencies_ms.end());
        ConfigResult result;
        result.segments = segments;
        result.workers = workers;
        result.mode = topk ? "topk10" : "full";
        result.samples = latencies_ms.size();
        result.qps = total_s > 0
                         ? static_cast<double>(latencies_ms.size()) / total_s
                         : 0.0;
        result.p50_ms = Percentile(latencies_ms, 0.50);
        result.p99_ms = Percentile(latencies_ms, 0.99);
        results.push_back(result);
        std::printf("%9zu %8zu %7s | %10.1f %10.3f %10.3f\n", segments,
                    workers, result.mode.c_str(), result.qps, result.p50_ms,
                    result.p99_ms);
      }
    }
  }

  const char* out_path = "BENCH_parallel_throughput.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"parallel_throughput\",\n"
               "  \"doc_count\": %llu,\n  \"scheme\": \"%s\",\n",
               static_cast<unsigned long long>(index.doc_count()), scheme);
  // The widest configuration the sweep asks the host to run in parallel.
  bench::WriteHostParallelismFields(
      out, std::max(*std::max_element(std::begin(kSegmentCounts),
                                      std::end(kSegmentCounts)),
                    *std::max_element(std::begin(kWorkerCounts),
                                      std::end(kWorkerCounts))));
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(out,
                 "    {\"segments\": %zu, \"workers\": %zu, "
                 "\"mode\": \"%s\", \"qps\": %.2f, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"samples\": %zu}%s\n",
                 r.segments, r.workers, r.mode.c_str(), r.qps, r.p50_ms,
                 r.p99_ms, r.samples, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  std::printf("Note: speedup from workers > 1 requires multiple physical "
              "cores; on a\nsingle-core host the sweep measures "
              "partitioning + merge overhead only.\n");
  return RunPruningSweep(index);
}
