// Join-order ablation: the paper's heuristic (fewest positions scanned
// first) vs the cost-model order (fewest estimated documents first) —
// the cost-based extension the paper leaves as future work.
//
// The two orders differ when a keyword is document-rare but position-
// dense (many occurrences in few documents): the heuristic ranks it by
// its position count and may not drive the zig-zag with it, while the
// cost model recognizes it as the most selective stream.
//
// Self-checks (exit 1 on failure): both orders return the same doc ids
// with bit-identical scores, and each order drives the zig-zag with the
// keyword its key predicts.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/optimizer.h"
#include "exec/executor.h"
#include "mcalc/parser.h"

int main() {
  using namespace graft;

  // Dedicated skewed corpus where the two orders disagree:
  //   'dense': 1% of docs, 96 occurrences each  -> df 200, cf ~19200
  //   'broad': ~40% of docs, 1-2 occurrences    -> df ~8000, cf ~12000
  //   'mid':   ~8% of docs, 4 occurrences       -> df ~1600, cf ~6400
  // The heuristic (positions ascending) drives with the fewest-position
  // keyword present: 'mid', else 'broad'. The cost model drives with
  // 'dense' (fewest documents).
  const uint64_t docs = 20000;
  index::IndexBuilder builder;
  Rng rng(99);
  std::vector<std::string> tokens;
  for (uint64_t d = 0; d < docs; ++d) {
    tokens.clear();
    for (int i = 0; i < 200; ++i) {
      tokens.push_back("w" + std::to_string(rng.NextBounded(2000)));
    }
    if (d % 100 == 0) {
      for (int i = 0; i < 96; ++i) tokens[i * 2] = "dense";
    }
    if (rng.NextBool(0.4)) {
      tokens[100] = "broad";
      if (rng.NextBool(0.5)) tokens[110] = "broad";
    }
    if (rng.NextBool(0.08)) {
      for (int i = 0; i < 4; ++i) tokens[121 + i * 2] = "mid";
    }
    builder.AddDocumentStrings(tokens);
  }
  index::InvertedIndex index = builder.Build();

  const struct {
    const char* text;
    const char* heuristic_outer;  // the paper key's outermost keyword
  } queries[] = {
      {"dense broad", "broad"},
      {"dense mid broad", "mid"},
      {"(dense broad)WINDOW[60] mid", "mid"},
  };

  std::printf("Join-order ablation: paper heuristic vs cost model\n");
  std::printf("%-28s | %14s %14s | %8s\n", "query", "heuristic(ms)",
              "cost-based(ms)", "ratio");
  std::printf("------------------------------------------------------------"
              "--------\n");

  const sa::ScoringScheme& scheme =
      *sa::SchemeRegistry::Global().Lookup("BestSumMinDist");
  for (const auto& q : queries) {
    auto query = mcalc::ParseQuery(q.text);
    if (!query.ok()) {
      std::printf("%-28s | PARSE ERROR %s\n", q.text,
                  query.status().ToString().c_str());
      return 1;
    }

    struct Run {
      std::string outer;  // outermost keyword of the join region
      std::vector<ma::ScoredDoc> results;
      double seconds = 0.0;
    };
    const auto run = [&](bool cost_based) {
      core::OptimizerOptions options;
      options.cost_based_join_order = cost_based;
      core::Optimizer optimizer(&scheme, options);
      auto plan = optimizer.Optimize(*query, index);
      Run out;
      if (!plan.ok()) return out;
      // The plan's leftmost leaf: the join region's outermost input.
      const ma::PlanNode* node = plan->plan.get();
      while (!node->children.empty()) node = node->children[0].get();
      out.outer = node->keyword;
      exec::Executor executor(&index, &scheme,
                              core::MakeQueryContext(*query));
      auto warm = executor.ExecuteRanked(*plan->plan);
      if (warm.ok()) out.results = std::move(warm).value();
      out.seconds = bench::MeasureSeconds([&] {
        auto r = executor.ExecuteRanked(*plan->plan);
        (void)r;
      });
      return out;
    };

    const Run heuristic = run(false);
    const Run cost_based = run(true);
    if (heuristic.outer != q.heuristic_outer || cost_based.outer != "dense") {
      std::printf("%-28s | WRONG OUTER KEYWORD: heuristic '%s' (want '%s'), "
                  "cost-based '%s' (want 'dense')\n",
                  q.text, heuristic.outer.c_str(), q.heuristic_outer,
                  cost_based.outer.c_str());
      return 1;
    }
    bool same = heuristic.results.size() == cost_based.results.size() &&
                !heuristic.results.empty();
    for (size_t i = 0; same && i < heuristic.results.size(); ++i) {
      const ma::ScoredDoc& a = heuristic.results[i];
      const ma::ScoredDoc& b = cost_based.results[i];
      same = a.doc == b.doc && std::bit_cast<uint64_t>(a.score) ==
                                   std::bit_cast<uint64_t>(b.score);
    }
    if (!same) {
      std::printf("%-28s | RESULT MISMATCH (%zu vs %zu results)\n", q.text,
                  heuristic.results.size(), cost_based.results.size());
      return 1;
    }
    std::printf("%-28s | %14.3f %14.3f | %7.2fx\n", q.text,
                heuristic.seconds * 1e3, cost_based.seconds * 1e3,
                cost_based.seconds > 0
                    ? heuristic.seconds / cost_based.seconds
                    : 0.0);
  }
  std::printf(
      "\nBoth orders return the same doc ids with bit-identical scores, and\n"
      "each drives with its predicted keyword (asserted). Observed finding:\n"
      "with symmetric leapfrog alignment (each side gallops toward the\n"
      "other), the zig-zag join is largely insensitive to input order: the\n"
      "misordering cost a classical one-sided nested/index join would pay\n"
      "does not arise. This is a robustness property of the zig-zag\n"
      "technique itself (Section 5.2.1).\n");
  return 0;
}
