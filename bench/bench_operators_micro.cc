// Operator micro-benchmarks (google-benchmark): the physical primitives
// every plan is made of — positional scans, galloping skips, zig-zag
// joins, count scans, grouping, and alternate elimination.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/canonical_plan.h"
#include "core/engine.h"
#include "exec/executor.h"
#include "mcalc/parser.h"
#include "sa/scoring_scheme.h"

namespace {

using namespace graft;

const index::InvertedIndex& Index() { return bench::SharedBenchIndex(); }

void BM_PostingScan(benchmark::State& state) {
  const TermId term = Index().LookupTerm("free");
  for (auto _ : state) {
    index::PostingCursor cursor(&Index().postings(term));
    uint64_t checksum = 0;
    while (!cursor.AtEnd()) {
      for (const Offset offset : cursor.offsets()) {
        checksum += offset;
      }
      cursor.Next();
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() *
                          Index().CollectionFreq(term));
}
BENCHMARK(BM_PostingScan);

void BM_GallopingSkip(benchmark::State& state) {
  // Skip through the frequent 'free' postings using a rare term's docs as
  // targets: the zig-zag access pattern.
  const TermId frequent = Index().LookupTerm("free");
  const TermId rare = Index().LookupTerm("emulator");
  for (auto _ : state) {
    index::PostingCursor cursor(&Index().postings(frequent));
    uint64_t hits = 0;
    for (index::PostingCursor targets(&Index().postings(rare));
         !targets.AtEnd(); targets.Next()) {
      cursor.SkipTo(targets.doc());
      if (cursor.AtEnd()) break;
      hits += cursor.doc() == targets.doc() ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_GallopingSkip);

void RunMatchingSubplan(const char* query_text, benchmark::State& state) {
  auto query = mcalc::ParseQuery(query_text);
  auto plan = core::BuildMatchingSubplanNoSort(*query);
  if (!ma::ResolvePlan(plan->get(), Index()).ok()) {
    state.SkipWithError("resolve failed");
    return;
  }
  exec::Executor executor(&Index(), nullptr, sa::QueryContext{});
  for (auto _ : state) {
    auto table = executor.ExecuteTable(**plan);
    benchmark::DoNotOptimize(table->rows.size());
  }
}

void BM_ZigZagJoin_RareFrequent(benchmark::State& state) {
  RunMatchingSubplan("emulator free", state);
}
BENCHMARK(BM_ZigZagJoin_RareFrequent);

void BM_ZigZagJoin_FrequentFrequent(benchmark::State& state) {
  RunMatchingSubplan("free software", state);
}
BENCHMARK(BM_ZigZagJoin_FrequentFrequent);

void BM_UnionMerge(benchmark::State& state) {
  RunMatchingSubplan("image | picture | drawing | illustration", state);
}
BENCHMARK(BM_UnionMerge);

void BM_PhraseFilter(benchmark::State& state) {
  RunMatchingSubplan("\"san francisco\"", state);
}
BENCHMARK(BM_PhraseFilter);

void BM_EagerCountScan(benchmark::State& state) {
  ma::PlanNodePtr plan = ma::MakeGroup(
      ma::MakeProject(ma::MakeAtom("free", 0), {}), [] {
        ma::GroupSpec spec;
        spec.count_output = "c0";
        spec.count_keyword = "free";
        return spec;
      }());
  if (!ma::ResolvePlan(plan.get(), Index()).ok()) {
    state.SkipWithError("resolve failed");
    return;
  }
  exec::Executor executor(&Index(), nullptr, sa::QueryContext{});
  for (auto _ : state) {
    auto table = executor.ExecuteTable(*plan);
    benchmark::DoNotOptimize(table->rows.size());
  }
}
BENCHMARK(BM_EagerCountScan);

void BM_PreCountScan(benchmark::State& state) {
  ma::PlanNodePtr plan = ma::MakePreCountAtom("free", "c0");
  if (!ma::ResolvePlan(plan.get(), Index()).ok()) {
    state.SkipWithError("resolve failed");
    return;
  }
  exec::Executor executor(&Index(), nullptr, sa::QueryContext{});
  for (auto _ : state) {
    auto table = executor.ExecuteTable(*plan);
    benchmark::DoNotOptimize(table->rows.size());
  }
}
BENCHMARK(BM_PreCountScan);

void BM_StreamGroupVsAltElim(benchmark::State& state) {
  // γ_d over all positions of a frequent keyword vs δ_A taking one row.
  const bool alt_elim = state.range(0) == 1;
  auto query = mcalc::ParseQuery("free");
  auto matching = core::BuildMatchingSubplanNoSort(*query);
  const sa::ScoringScheme& scheme =
      *sa::SchemeRegistry::Global().Lookup("AnySum");
  ma::PlanNodePtr plan;
  if (alt_elim) {
    plan = ma::MakeAltElim(std::move(*matching));
  } else {
    std::vector<ma::ProjectItem> items;
    items.push_back(
        ma::ProjectItem::Scored("s", ma::ScoreExpr::InitPos("p0")));
    plan = ma::MakeProject(std::move(*matching), std::move(items));
    ma::GroupSpec spec;
    spec.score_aggs.push_back({"s", "s", ""});
    plan = ma::MakeGroup(std::move(plan), std::move(spec));
  }
  if (!ma::ResolvePlan(plan.get(), Index()).ok()) {
    state.SkipWithError("resolve failed");
    return;
  }
  exec::Executor executor(&Index(), &scheme, sa::QueryContext{1});
  for (auto _ : state) {
    auto table = executor.ExecuteTable(*plan);
    benchmark::DoNotOptimize(table->rows.size());
  }
}
BENCHMARK(BM_StreamGroupVsAltElim)->Arg(0)->Arg(1);

void BM_IndexBuild(benchmark::State& state) {
  // Index construction throughput (tokens/s) over a pre-generated corpus.
  // The calling thread interns each token into a batch; from the first
  // full batch (IndexBuilder::kBatchTokens) the builder's worker inverts
  // each batch while the next fills, and Build() inverts the last one and
  // adds frontiers and columns. 500 and 2000 docs fit in one batch, so
  // they run on the calling thread alone; 8000 docs (about 1.8M tokens)
  // span seven.
  const uint64_t num_docs = static_cast<uint64_t>(state.range(0));
  text::CorpusConfig config = text::WikipediaLikeConfig(num_docs);
  std::vector<std::vector<std::string>> docs;
  std::vector<std::vector<std::string_view>> views;
  docs.reserve(num_docs);
  text::CorpusGenerator generator(config);
  generator.Generate(
      [&docs](uint64_t, const std::vector<std::string_view>& tokens) {
        docs.emplace_back(tokens.begin(), tokens.end());
      });
  views.reserve(docs.size());
  uint64_t total_tokens = 0;
  for (const auto& doc : docs) {
    views.emplace_back(doc.begin(), doc.end());
    total_tokens += doc.size();
  }
  for (auto _ : state) {
    index::IndexBuilder builder;
    for (const auto& tokens : views) {
      builder.AddDocument(tokens);
    }
    index::InvertedIndex built = builder.Build();
    benchmark::DoNotOptimize(built.total_words());
  }
  state.SetItemsProcessed(state.iterations() * total_tokens);
}
BENCHMARK(BM_IndexBuild)
    ->Arg(500)
    ->Arg(2000)
    ->Arg(8000)
    ->UseRealTime()  // the builder's worker thread does part of the work
    ->Unit(benchmark::kMillisecond);

void BM_FullEngineSearch(benchmark::State& state) {
  auto query = mcalc::ParseQuery("san francisco fault line");
  const sa::ScoringScheme& scheme =
      *sa::SchemeRegistry::Global().Lookup("Lucene");
  core::Engine engine(&Index());
  for (auto _ : state) {
    auto result = engine.SearchQuery(*query, scheme);
    benchmark::DoNotOptimize(result->results.size());
  }
}
BENCHMARK(BM_FullEngineSearch);

}  // namespace

BENCHMARK_MAIN();
