// Score consistency across the segmented parallel execution path: for
// every scoring scheme from the paper's Section 7 and every segment count,
// the parallel engine must return bit-identical scores in the identical
// order as the monolithic engine — both for full result sets and for
// top-k (rank-processed) searches, with and without a statistics overlay
// (per-document, and the router's collection-level kind).
// This is the end-to-end check that a segment is exactly the one index
// restricted to its doc range.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "exec/maxscore_topk.h"
#include "index/inverted_index.h"
#include "index/segmented_index.h"
#include "mcalc/parser.h"
#include "text/corpus.h"

namespace graft::core {
namespace {

constexpr const char* kQueries[] = {
    "san francisco fault line",
    "(windows emulator)WINDOW[50] (foss | \"free software\")",
    "(free wireless internet)PROXIMITY[10] service",
    "software",
    "fishing | hunting | dinosaur",
    "free software !windows",
};

// The seven Section 7 schemes plus the extra AnyProd registration.
constexpr const char* kSchemes[] = {
    "AnySum",  "AnyProd",    "SumBest",        "Lucene",
    "JoinNormalized", "MeanSum", "EventModel", "BestSumMinDist"};

constexpr size_t kSegmentCounts[] = {1, 2, 4, 7};

struct Fixture {
  index::InvertedIndex index;
  std::vector<index::SegmentedIndex> segmented;   // one per kSegmentCounts
  std::unique_ptr<Engine> monolithic;
  std::vector<std::unique_ptr<Engine>> parallel;  // one per kSegmentCounts
};

const Fixture& SharedFixture() {
  static const Fixture& fixture = *[] {
    auto* f = new Fixture();
    text::CorpusConfig config = text::WikipediaLikeConfig(500, /*seed=*/13);
    for (auto& bundle : config.bundles) {
      bundle.doc_fraction = std::min(1.0, bundle.doc_fraction * 40);
    }
    for (auto& phrase : config.phrases) {
      phrase.doc_fraction = std::min(1.0, phrase.doc_fraction * 20);
    }
    index::IndexBuilder builder;
    text::CorpusGenerator generator(config);
    generator.Generate(
        [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
          builder.AddDocument(tokens);
        });
    f->index = builder.Build();
    f->monolithic = std::make_unique<Engine>(&f->index);
    f->segmented.reserve(std::size(kSegmentCounts));
    for (size_t n : kSegmentCounts) {
      auto segmented = index::SegmentedIndex::BuildFromMonolithic(f->index, n);
      EXPECT_TRUE(segmented.ok()) << segmented.status().ToString();
      f->segmented.push_back(std::move(segmented).value());
    }
    for (index::SegmentedIndex& seg : f->segmented) {
      f->parallel.push_back(
          std::make_unique<Engine>(&f->index, &seg, /*pool_threads=*/3));
    }
    return f;
  }();
  return fixture;
}

void ExpectIdentical(const std::vector<ma::ScoredDoc>& expected,
                     const std::vector<ma::ScoredDoc>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].doc, actual[i].doc) << label << " rank " << i;
    // Bit-identical, not approximately equal: segments evaluate the same
    // arithmetic on the same statistics.
    ASSERT_EQ(expected[i].score, actual[i].score)
        << label << " rank " << i << " doc " << expected[i].doc;
  }
}

struct Case {
  std::string query;
  std::string scheme;
};

class ParallelConsistencyTest : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelConsistencyTest, FullSearchMatchesMonolithic) {
  const Fixture& f = SharedFixture();
  const Case& c = GetParam();
  auto expected = f.monolithic->Search(c.query, c.scheme);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  for (size_t i = 0; i < std::size(kSegmentCounts); ++i) {
    auto actual = f.parallel[i]->Search(c.query, c.scheme);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual->segments_searched, f.segmented[i].segment_count());
    ExpectIdentical(expected->results, actual->results,
                    "segments=" + std::to_string(kSegmentCounts[i]));
  }
}

TEST_P(ParallelConsistencyTest, TopKMatchesMonolithic) {
  const Fixture& f = SharedFixture();
  const Case& c = GetParam();
  for (size_t k : {1u, 5u, 25u}) {
    SearchOptions options;
    options.top_k = k;
    auto expected = f.monolithic->Search(c.query, c.scheme, options);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (size_t i = 0; i < std::size(kSegmentCounts); ++i) {
      auto actual = f.parallel[i]->Search(c.query, c.scheme, options);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ExpectIdentical(expected->results, actual->results,
                      "k=" + std::to_string(k) + " segments=" +
                          std::to_string(kSegmentCounts[i]));
    }
  }
}

TEST_P(ParallelConsistencyTest, SerialSegmentedMatchesMonolithic) {
  // num_threads == 1: segments execute serially on the calling thread —
  // the merge logic alone, with no pool involvement.
  const Fixture& f = SharedFixture();
  const Case& c = GetParam();
  SearchOptions options;
  options.num_threads = 1;
  auto expected = f.monolithic->Search(c.query, c.scheme);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto actual = f.parallel.back()->Search(c.query, c.scheme, options);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ExpectIdentical(expected->results, actual->results, "serial segmented");
}

// Pinned-statistics overlay of the router kind (collection-level figures)
// plus per-document lengths keyed by global doc ids in every segment. The
// doc lengths keep every top-k query of it off the pruned operator.
const index::StatsOverlay& SharedOverlay() {
  static const index::StatsOverlay& overlay = *[] {
    const Fixture& f = SharedFixture();
    auto* o = new index::StatsOverlay();
    o->SetCollectionSize(f.index.doc_count() * 3);
    o->SetTotalWords(f.index.total_words() * 2);
    o->SetDocFreq("software", f.index.doc_count() / 2);
    o->SetCollectionFreq("software", f.index.total_words() / 50);
    for (DocId doc = 3; doc < f.index.doc_count(); doc += 37) {
      o->SetDocLength(doc, 1 + doc % 17);
    }
    return o;
  }();
  return overlay;
}

TEST_P(ParallelConsistencyTest, StatsOverlayMatchesMonolithic) {
  // A per-request overlay applies to every segment view alike: segmented
  // + overlay is bit-identical to monolithic + the same overlay.
  const Fixture& f = SharedFixture();
  const Case& c = GetParam();
  for (size_t k : {0u, 5u}) {
    SearchOptions options;
    options.top_k = k;
    options.stats_overlay = &SharedOverlay();
    auto expected = f.monolithic->Search(c.query, c.scheme, options);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (size_t i = 0; i < std::size(kSegmentCounts); ++i) {
      auto actual = f.parallel[i]->Search(c.query, c.scheme, options);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(actual->segments_searched, f.segmented[i].segment_count());
      ExpectIdentical(expected->results, actual->results,
                      "overlay k=" + std::to_string(k) + " segments=" +
                          std::to_string(kSegmentCounts[i]));
    }
  }
}

// The router's pinned statistics as they arrive on a shard: collection-
// level figures only (N, total words, per-term df/cf), far from the
// index's own. Unlike SharedOverlay it overrides no per-document
// statistic, so block-max pruning stays licensed under it.
const index::StatsOverlay& SharedCollectionOverlay() {
  static const index::StatsOverlay& overlay = *[] {
    const Fixture& f = SharedFixture();
    auto* o = new index::StatsOverlay();
    o->SetCollectionSize(f.index.doc_count() * 3);
    o->SetTotalWords(f.index.total_words() * 2);
    for (const char* term : {"software", "free", "fishing", "fault"}) {
      const TermId id = f.index.LookupTerm(term);
      if (id == kInvalidTerm) continue;
      o->SetDocFreq(term, f.index.DocFreq(id) / 3 + 1);
      o->SetCollectionFreq(term, f.index.CollectionFreq(id) * 2);
    }
    return o;
  }();
  return overlay;
}

TEST_P(ParallelConsistencyTest, CollectionOverlayMatchesMonolithic) {
  // Segmented + collection-level overlay is bit-identical to monolithic +
  // the same overlay, the top-k is the full ranking's prefix, and the
  // pruned operator runs exactly where its gate licenses it.
  const Fixture& f = SharedFixture();
  const Case& c = GetParam();
  const index::StatsOverlay& overlay = SharedCollectionOverlay();
  auto query = mcalc::ParseQuery(c.query);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const sa::ScoringScheme& scheme =
      *sa::SchemeRegistry::Global().Lookup(c.scheme);
  const bool licensed =
      exec::MaxScoreTopK::Supports(*query, scheme, &overlay);

  SearchOptions full_options;
  full_options.stats_overlay = &overlay;
  auto full = f.monolithic->Search(c.query, c.scheme, full_options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (size_t k : {0u, 5u}) {
    SearchOptions options = full_options;
    options.top_k = k;
    auto expected = f.monolithic->Search(c.query, c.scheme, options);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    std::vector<ma::ScoredDoc> prefix = full->results;
    if (k > 0 && prefix.size() > k) prefix.resize(k);
    ExpectIdentical(prefix, expected->results,
                    "collection overlay k=" + std::to_string(k) +
                        " monolithic");
    EXPECT_EQ(expected->used_block_max_pruning, k > 0 && licensed);
    for (size_t i = 0; i < std::size(kSegmentCounts); ++i) {
      auto actual = f.parallel[i]->Search(c.query, c.scheme, options);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(actual->used_block_max_pruning, k > 0 && licensed);
      ExpectIdentical(expected->results, actual->results,
                      "collection overlay k=" + std::to_string(k) +
                          " segments=" + std::to_string(kSegmentCounts[i]));
    }
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const char* query : kQueries) {
    for (const char* scheme : kSchemes) {
      cases.push_back(Case{query, scheme});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.scheme + "_q" + std::to_string(info.index);
  std::replace_if(
      name.begin(), name.end(),
      [](char ch) { return !std::isalnum(static_cast<unsigned char>(ch)); },
      '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSchemesAllSegmentCounts, ParallelConsistencyTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(ParallelEngineTest, CanonicalReferenceFallsBackToMonolithic) {
  const Fixture& f = SharedFixture();
  SearchOptions options;
  options.use_canonical_reference = true;
  auto result = f.parallel[1]->Search("software", "MeanSum", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->segments_searched, 1u);
}

TEST(ParallelEngineTest, ReportsSegmentAnnotations) {
  const Fixture& f = SharedFixture();
  auto result = f.parallel[2]->Search("san francisco fault line", "MeanSum");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->segments_searched, 4u);
  EXPECT_NE(result->applied_optimizations.find("segmented"), std::string::npos);
}

TEST(ParallelEngineTest, ConcurrentSearchesOnOneEngine) {
  // Inter-query parallelism: many threads issuing searches against a
  // single shared engine (and its shared pool) must all get consistent
  // results. Exercised under TSan in CI.
  const Fixture& f = SharedFixture();
  auto expected = f.monolithic->Search("free software !windows", "Lucene");
  ASSERT_TRUE(expected.ok());
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<std::vector<ma::ScoredDoc>> outputs(kThreads);
  std::vector<char> ok(kThreads, 0);  // not vector<bool>: bits share words
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, &outputs, &ok, t] {
      auto result =
          f.parallel.back()->Search("free software !windows", "Lucene");
      if (result.ok()) {
        outputs[t] = std::move(result->results);
        ok[t] = 1;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(ok[t]) << "thread " << t;
    ExpectIdentical(expected->results, outputs[t],
                    "thread " + std::to_string(t));
  }
}

}  // namespace
}  // namespace graft::core
