#include "index/segmented_index.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/canonical_plan.h"
#include "core/engine.h"
#include "core/optimizer.h"
#include "core/request.h"
#include "exec/executor.h"
#include "exec/maxscore_topk.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "mcalc/parser.h"
#include "sa/scoring_scheme.h"
#include "text/corpus.h"

namespace graft::index {
namespace {

constexpr const char* kSchemes[] = {
    "AnySum",  "AnyProd", "SumBest",    "Lucene",
    "JoinNormalized", "MeanSum", "EventModel", "BestSumMinDist"};

InvertedIndex BuildSmallIndex(uint64_t num_docs) {
  text::CorpusConfig config = text::WikipediaLikeConfig(num_docs, /*seed=*/11);
  IndexBuilder builder;
  text::CorpusGenerator generator(config);
  generator.Generate(
      [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
        builder.AddDocument(tokens);
      });
  return builder.Build();
}

std::string TempIndexPath(const std::string& tag) {
  return ::testing::TempDir() + "/graft_" + std::to_string(::getpid()) +
         "_" + tag + ".idx";
}

struct Posting {
  DocId doc;
  uint32_t tf;
  std::vector<Offset> offsets;

  bool operator==(const Posting&) const = default;
};

// The postings a scan bounded by `range` must visit: every posting of the
// list whose doc id lies in [doc_lo, doc_hi), read by position index.
std::vector<Posting> PostingsInRange(const PostingList& list, DocRange range) {
  std::vector<Posting> out;
  for (size_t p = 0; p < list.doc_count(); ++p) {
    const DocId doc = list.doc_at(p);
    if (doc >= range.doc_lo && doc < range.doc_hi) {
      out.push_back({doc, list.tf_at(p), list.OffsetsAt(p)});
    }
  }
  return out;
}

std::string RangeLabel(DocRange range) {
  // Appends rather than `"[" + std::to_string(...)`, which GCC 12 flags
  // with a false -Wrestrict once inlined.
  std::string label = "[";
  label += std::to_string(range.doc_lo) + ", " +
           std::to_string(range.doc_hi) + ")";
  return label;
}

// Walks `list` with bounded cursors over `range` in both scan modes (the
// A scan reads offsets, the CA scan only doc and tf), mixing Next with
// SkipTo (targets inside the range, and at or past its end), and checks
// every step against `want`, the monolithic postings in range.
void ExpectCursorsVisit(const PostingList& list, DocRange range,
                        const std::vector<Posting>& want, std::mt19937* rng) {
  const std::string label = RangeLabel(range);
  {
    PostingCursor cursor(&list, range);
    std::vector<Posting> got;
    for (; !cursor.AtEnd(); cursor.Next()) {
      const std::span<const Offset> offsets = cursor.offsets();
      got.push_back({cursor.doc(), cursor.tf(),
                     std::vector<Offset>(offsets.begin(), offsets.end())});
    }
    ASSERT_EQ(got, want) << "PostingCursor " << label;
  }
  {
    PostingCursor cursor(&list, range);
    size_t j = 0;
    for (; !cursor.AtEnd(); cursor.Next(), ++j) {
      ASSERT_LT(j, want.size()) << "count scan " << label;
      ASSERT_EQ(cursor.doc(), want[j].doc) << "count scan " << label;
      ASSERT_EQ(cursor.tf(), want[j].tf) << "count scan " << label;
    }
    ASSERT_EQ(j, want.size()) << "count scan " << label;
  }
  // Random SkipTo/Next interleavings against the reference position.
  const DocId last = want.empty() ? range.doc_lo : want.back().doc;
  for (int round = 0; round < 4; ++round) {
    PostingCursor cursor(&list, range);
    PostingCursor counts(&list, range);
    size_t j = 0;
    while (true) {
      ASSERT_EQ(cursor.AtEnd(), j == want.size()) << label;
      ASSERT_EQ(counts.AtEnd(), j == want.size()) << label;
      if (j == want.size()) break;
      ASSERT_EQ(cursor.doc(), want[j].doc) << label;
      ASSERT_EQ(cursor.tf(), want[j].tf) << label;
      const std::span<const Offset> offsets = cursor.offsets();
      ASSERT_EQ(std::vector<Offset>(offsets.begin(), offsets.end()),
                want[j].offsets)
          << label;
      ASSERT_EQ(counts.doc(), want[j].doc) << label;
      if ((*rng)() % 3 == 0) {
        cursor.Next();
        counts.Next();
        ++j;
        continue;
      }
      // Targets reach past the last in-range doc, so SkipTo(target >=
      // doc_hi) and skips into the next range both occur.
      std::uniform_int_distribution<uint64_t> pick(
          want[j].doc, static_cast<uint64_t>(last) + 300);
      const DocId target = static_cast<DocId>(pick(*rng));
      cursor.SkipTo(target);
      counts.SkipTo(target);
      while (j < want.size() && want[j].doc < target) ++j;
    }
  }
}

// Random ranges plus the edge cases: empty ranges, bounds on and inside
// block edges, lo past the last doc, the full range.
std::vector<DocRange> TestRanges(const PostingList& list, uint64_t docs,
                                 std::mt19937* rng) {
  std::vector<DocRange> ranges = {DocRange{}, {0, 0}, {5, 5}};
  const size_t n = list.doc_count();
  const DocId last = list.doc_at(n - 1);
  ranges.push_back({last + 1, kInvalidDoc});
  ranges.push_back({last + 1, last + 50});
  ranges.push_back({last, last + 1});
  for (size_t edge = 0; edge <= n; edge += PostingList::kBlockSize) {
    for (const size_t p : {edge, edge + 1, edge + PostingList::kBlockSize / 2}) {
      if (p == 0 || p > n) continue;
      const DocId at = list.doc_at(p - 1);
      ranges.push_back({at, at});              // empty, on a posting
      ranges.push_back({at, at + 1});          // exactly one posting
      ranges.push_back({at + 1, kInvalidDoc});  // just past posting p-1
      ranges.push_back({0, at});
      ranges.push_back({0, at + 1});
      ranges.push_back({at / 2, at + 1});
    }
  }
  std::uniform_int_distribution<uint64_t> doc(0, docs + 10);
  for (int i = 0; i < 40; ++i) {
    DocId lo = static_cast<DocId>(doc(*rng));
    DocId hi = static_cast<DocId>(doc(*rng));
    if (lo > hi) std::swap(lo, hi);
    ranges.push_back({lo, hi});
  }
  return ranges;
}

// Lists with several blocks (block edges inside the list) and a short one.
std::vector<TermId> TestTerms(const InvertedIndex& index) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < index.term_count() && terms.size() < 6; ++t) {
    const size_t df = index.postings(t).doc_count();
    if (df > 2 * PostingList::kBlockSize + 7 ||
        (terms.empty() && df > 3 && df < 40)) {
      terms.push_back(t);
    }
  }
  return terms;
}

TEST(SegmentedIndexTest, RejectsZeroSegments) {
  InvertedIndex index = BuildSmallIndex(10);
  EXPECT_FALSE(SegmentedIndex::BuildFromMonolithic(index, 0).ok());
}

TEST(SegmentedIndexTest, ClampsSegmentCountToDocCount) {
  InvertedIndex index = BuildSmallIndex(3);
  auto segmented = SegmentedIndex::BuildFromMonolithic(index, 16);
  ASSERT_TRUE(segmented.ok()) << segmented.status().ToString();
  EXPECT_EQ(segmented->segment_count(), 3u);
}

TEST(SegmentedIndexTest, EmptyIndexYieldsOneEmptySegment) {
  IndexBuilder builder;
  InvertedIndex index = builder.Build();
  auto segmented = SegmentedIndex::BuildFromMonolithic(index, 4);
  ASSERT_TRUE(segmented.ok()) << segmented.status().ToString();
  EXPECT_EQ(segmented->segment_count(), 1u);
  EXPECT_EQ(segmented->segment(0), (DocRange{0, 0}));
}

TEST(SegmentedIndexTest, SegmentsPartitionTheDocSpace) {
  InvertedIndex index = BuildSmallIndex(101);
  auto segmented = SegmentedIndex::BuildFromMonolithic(index, 4);
  ASSERT_TRUE(segmented.ok());
  DocId next = 0;
  for (size_t s = 0; s < segmented->segment_count(); ++s) {
    const DocRange& range = segmented->segment(s);
    EXPECT_EQ(range.doc_lo, next) << "segment " << s;
    EXPECT_GT(range.doc_hi, range.doc_lo) << "segment " << s;
    next = range.doc_hi;
  }
  EXPECT_EQ(next, index.doc_count());
}

TEST(SegmentedIndexTest, SingleSegmentEqualsMonolith) {
  InvertedIndex index = BuildSmallIndex(25);
  auto segmented = SegmentedIndex::BuildFromMonolithic(index, 1);
  ASSERT_TRUE(segmented.ok());
  ASSERT_EQ(segmented->segment_count(), 1u);
  EXPECT_EQ(segmented->segment(0),
            (DocRange{0, static_cast<DocId>(index.doc_count())}));
}

TEST(SegmentedIndexTest, SegmentRangesCoverEveryPostingWithPositions) {
  // Concatenating each segment's bounded scan rebuilds the monolithic
  // list exactly, positions included (positional predicates run per
  // segment), for segment counts down to one document per segment.
  InvertedIndex index = BuildSmallIndex(50);
  for (const size_t n : {size_t{2}, size_t{4}, size_t{7}, size_t{50}}) {
    auto segmented = SegmentedIndex::BuildFromMonolithic(index, n);
    ASSERT_TRUE(segmented.ok());
    for (TermId t = 0; t < index.term_count(); ++t) {
      const PostingList& list = index.postings(t);
      std::vector<Posting> rebuilt;
      for (size_t s = 0; s < segmented->segment_count(); ++s) {
        for (PostingCursor c(&list, segmented->segment(s)); !c.AtEnd();
             c.Next()) {
          const std::span<const Offset> offsets = c.offsets();
          rebuilt.push_back({c.doc(), c.tf(),
                             std::vector<Offset>(offsets.begin(),
                                                 offsets.end())});
        }
      }
      ASSERT_EQ(rebuilt, PostingsInRange(list, DocRange{}))
          << "n=" << n << " term " << index.TermText(t);
    }
  }
}

TEST(SegmentedIndexTest, BoundedCursorsVisitExactlyTheRange) {
  // Property test on materialized lists: over random and edge-case
  // ranges, both scan modes visit exactly the monolithic postings in range,
  // with identical tf and positions, under any Next/SkipTo interleaving.
  const InvertedIndex index = BuildSmallIndex(1200);
  const std::vector<TermId> terms = TestTerms(index);
  ASSERT_GE(terms.size(), 2u);
  std::mt19937 rng(20261017);
  for (const TermId t : terms) {
    const PostingList& list = index.postings(t);
    for (const DocRange range : TestRanges(list, index.doc_count(), &rng)) {
      ExpectCursorsVisit(list, range, PostingsInRange(list, range), &rng);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SegmentedIndexTest, BoundedCursorsOnMappedListVisitExactlyTheRange) {
  // Same property on v5-mapped lists, which decode through the block
  // cache: the reference is the in-heap list the file was written from.
  const InvertedIndex built = BuildSmallIndex(1200);
  const std::string path = TempIndexPath("range_mmap");
  ASSERT_TRUE(SaveIndexV5(built, path).ok());
  auto mapped = LoadIndexMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(mapped->is_packed());
  const std::vector<TermId> terms = TestTerms(built);
  ASSERT_GE(terms.size(), 2u);
  std::mt19937 rng(7);
  for (const TermId t : terms) {
    const PostingList& eager = built.postings(t);
    const TermId mt = mapped->LookupTerm(built.TermText(t));
    ASSERT_NE(mt, kInvalidTerm);
    const PostingList& list = mapped->postings(mt);
    for (const DocRange range : TestRanges(eager, built.doc_count(), &rng)) {
      ExpectCursorsVisit(list, range, PostingsInRange(eager, range), &rng);
      if (HasFatalFailure()) break;
    }
  }
  std::remove(path.c_str());
}

TEST(SegmentedIndexTest, SkipToAtOrPastRangeEndIsAtEnd) {
  const InvertedIndex index = BuildSmallIndex(600);
  const std::vector<TermId> terms = TestTerms(index);
  ASSERT_FALSE(terms.empty());
  const PostingList& list = index.postings(terms.back());
  const DocId mid = list.doc_at(list.doc_count() / 2);
  const DocRange range{list.doc_at(1), mid};
  for (const DocId target : {mid, mid + 1, kInvalidDoc}) {
    PostingCursor cursor(&list, range);
    PostingCursor counts(&list, range);
    ASSERT_FALSE(cursor.AtEnd());
    cursor.SkipTo(target);
    counts.SkipTo(target);
    EXPECT_TRUE(cursor.AtEnd()) << target;
    EXPECT_TRUE(counts.AtEnd()) << target;
    // The end is sticky: a smaller target does not move the cursor back.
    cursor.SkipTo(range.doc_lo);
    EXPECT_TRUE(cursor.AtEnd()) << target;
  }
  // The last in-range posting is still reachable by SkipTo.
  const DocId last = list.doc_at(list.doc_count() / 2 - 1);
  PostingCursor cursor(&list, range);
  cursor.SkipTo(last);
  ASSERT_FALSE(cursor.AtEnd());
  EXPECT_EQ(cursor.doc(), last);
  cursor.Next();
  EXPECT_TRUE(cursor.AtEnd());
}

// The monolithic full ranking of `query`, restricted to `range`.
std::vector<ma::ScoredDoc> RankingInRange(const core::Engine& engine,
                                          const std::string& query,
                                          const std::string& scheme,
                                          DocRange range) {
  auto full = engine.Search(query, scheme);
  EXPECT_TRUE(full.ok()) << full.status();
  std::vector<ma::ScoredDoc> out;
  if (!full.ok()) return out;
  for (const ma::ScoredDoc& hit : full->results) {
    if (hit.doc >= range.doc_lo && hit.doc < range.doc_hi) {
      out.push_back(hit);
    }
  }
  return out;
}

void ExpectSameRanking(const std::vector<ma::ScoredDoc>& want,
                       const std::vector<ma::ScoredDoc>& got,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].doc, want[i].doc) << label << " rank " << i;
    ASSERT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

TEST(SegmentedIndexTest, RangeExecutionEqualsMonolithRestrictedToRange) {
  // A plan executed over one range reads the whole index's collection
  // statistics: it returns exactly the monolithic ranking's documents in
  // that range, with bit-identical scores, under every scheme.
  const InvertedIndex index = BuildSmallIndex(400);
  const core::Engine monolithic(&index);
  const DocRange ranges[] = {{0, 90}, {90, 91}, {133, 301}, {301, 400}};
  for (const char* scheme_name : kSchemes) {
    const sa::ScoringScheme* scheme =
        sa::SchemeRegistry::Global().Lookup(scheme_name);
    ASSERT_NE(scheme, nullptr);
    for (const char* text :
         {"software", "free software", "san francisco fault line",
          "(windows emulator)WINDOW[50] (foss | \"free software\")",
          "free software !windows"}) {
      auto query = mcalc::ParseQuery(text);
      ASSERT_TRUE(query.ok()) << query.status();
      core::Optimizer optimizer(scheme, core::OptimizerOptions{});
      auto plan = optimizer.Optimize(*query, index);
      ASSERT_TRUE(plan.ok()) << plan.status();
      for (const DocRange range : ranges) {
        exec::Executor executor(&index, scheme, core::MakeQueryContext(*query),
                                /*overlay=*/nullptr, range);
        auto got = executor.ExecuteRanked(*plan->plan);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectSameRanking(RankingInRange(monolithic, text, scheme_name, range),
                          *got,
                          std::string(scheme_name) + " " + text + " " +
                              RangeLabel(range));
      }
    }
  }
}

TEST(SegmentedIndexTest, RangeTopKOperatorsEqualMonolithRestrictedToRange) {
  // MaxScore, under either bound, run over one range wherever its gate
  // licenses the scheme, returns the first k of the monolithic ranking
  // restricted to it.
  const InvertedIndex index = BuildSmallIndex(900);
  const core::Engine monolithic(&index);
  const DocRange ranges[] = {{0, 300}, {300, 301}, {250, 700}, {700, 900}};
  constexpr size_t kK = 7;
  size_t runs = 0;
  for (const char* scheme_name : kSchemes) {
    const sa::ScoringScheme* scheme =
        sa::SchemeRegistry::Global().Lookup(scheme_name);
    ASSERT_NE(scheme, nullptr);
    for (const char* text : {"software", "free software", "free | software",
                             "san francisco fault line"}) {
      auto query = mcalc::ParseQuery(text);
      ASSERT_TRUE(query.ok()) << query.status();
      if (!exec::MaxScoreTopK::Supports(*query, *scheme, nullptr)) {
        continue;
      }
      for (const DocRange range : ranges) {
        std::vector<ma::ScoredDoc> want =
            RankingInRange(monolithic, text, scheme_name, range);
        if (want.size() > kK) want.resize(kK);
        const std::string label = std::string(scheme_name) + " " + text +
                                  " " + RangeLabel(range);
        for (const bool block_max : {true, false}) {
          exec::MaxScoreTopK op(&index, scheme, /*overlay=*/nullptr, range,
                                block_max);
          auto got = op.TopK(*query, kK);
          ASSERT_TRUE(got.ok()) << got.status();
          ExpectSameRanking(want, *got,
                            label + (block_max ? " block-max" : " term-bound"));
          ++runs;
        }
      }
    }
  }
  EXPECT_GT(runs, 0u);
}

TEST(SegmentedIndexTest, BundleRangesEqualBuiltRanges) {
  // A bundle's engine searches the ranges BuildFromMonolithic computes,
  // for any pool size, and ranks bit-identically to the monolithic index
  // under every scheme.
  constexpr uint64_t kDocs = 300;
  constexpr size_t kSegments = 4;
  const InvertedIndex index = BuildSmallIndex(kDocs);
  auto built = SegmentedIndex::BuildFromMonolithic(index, kSegments);
  ASSERT_TRUE(built.ok()) << built.status();
  const core::Engine monolithic(&index);
  for (const size_t pool_threads : {size_t{0}, size_t{3}}) {
    auto bundle = core::MakeEngineBundle(BuildSmallIndex(kDocs), kSegments,
                                         pool_threads);
    ASSERT_TRUE(bundle.ok()) << bundle.status();
    const SegmentedIndex* segmented = bundle->engine->segmented();
    ASSERT_NE(segmented, nullptr);
    ASSERT_EQ(segmented->segment_count(), built->segment_count());
    for (size_t s = 0; s < built->segment_count(); ++s) {
      EXPECT_EQ(segmented->segment(s), built->segment(s)) << "segment " << s;
    }
    for (const char* scheme : kSchemes) {
      for (const char* query :
           {"software", "free software", "san francisco fault line",
            "(windows emulator)WINDOW[50] (foss | \"free software\")"}) {
        for (const size_t k : {size_t{0}, size_t{5}}) {
          core::SearchOptions options;
          options.top_k = k;
          auto want = monolithic.Search(query, scheme, options);
          auto got = bundle->engine->Search(query, scheme, options);
          ASSERT_TRUE(want.ok()) << want.status();
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(got->segments_searched, kSegments);
          ExpectSameRanking(want->results, got->results,
                            std::string(scheme) + " " + query +
                                " k=" + std::to_string(k));
        }
      }
    }
  }
}

TEST(SegmentedIndexTest, MappedFanOutCountsEveryViewsCacheTraffic) {
  // With a mapped index, pool threads decode packed blocks through the
  // shared cache; the query's counters must account for all of it.
  const InvertedIndex built = BuildSmallIndex(1200);
  const std::string path = TempIndexPath("fanout_cache");
  ASSERT_TRUE(SaveIndexV5(built, path).ok());
  auto mapped = LoadIndexMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  auto segmented = SegmentedIndex::BuildFromMonolithic(*mapped, 3);
  ASSERT_TRUE(segmented.ok());
  const core::Engine engine(&*mapped, &*segmented, /*pool_threads=*/2);
  const BlockCache& cache = *mapped->block_cache();
  uint64_t total = 0;
  for (const char* query : {"software", "free software", "free | software",
                            "(free wireless internet)PROXIMITY[10] service"}) {
    for (const size_t k : {size_t{0}, size_t{5}}) {
      core::SearchOptions options;
      options.top_k = k;
      const BlockCache::Snapshot before = cache.snapshot();
      auto result = engine.Search(query, "Lucene", options);
      const BlockCache::Snapshot after = cache.snapshot();
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->segments_searched, 3u);
      const exec::ExecStats& s = result->exec_stats;
      EXPECT_EQ(s.block_cache_hits + s.block_cache_misses,
                (after.hits + after.misses) - (before.hits + before.misses))
          << query << " k=" << k;
      total += s.block_cache_hits + s.block_cache_misses;
    }
  }
  EXPECT_GT(total, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graft::index
