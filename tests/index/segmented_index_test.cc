#include "index/segmented_index.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/request.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "index/stats.h"
#include "text/corpus.h"

namespace graft::index {
namespace {

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

// Reference slice: decode every posting of [begin, end), re-encode it
// with AddDocument, then rebuild the block-max frontiers over the slice.
PostingList ReencodedSlice(const InvertedIndex& index, TermId term,
                           DocId begin, DocId end) {
  const PostingList& list = index.postings(term);
  PostingList slice;
  std::vector<Offset> offsets;
  for (size_t p = list.GallopTo(0, begin);
       p < list.doc_count() && list.doc_at(p) < end; ++p) {
    list.DecodeOffsets(p, &offsets);
    slice.AddDocument(list.doc_at(p) - begin, offsets);
  }
  const std::vector<uint32_t> lengths(index.doc_lengths().begin() + begin,
                                      index.doc_lengths().begin() + end);
  slice.BuildBlockMax(lengths);
  return slice;
}

// Every raw array of two materialized lists, byte for byte.
void ExpectSameList(const PostingList& expected, const PostingList& actual,
                    const std::string& label) {
  EXPECT_EQ(actual.raw_docs(), expected.raw_docs()) << label;
  EXPECT_EQ(actual.raw_tfs(), expected.raw_tfs()) << label;
  EXPECT_EQ(actual.raw_offset_starts(), expected.raw_offset_starts())
      << label;
  EXPECT_EQ(actual.raw_encoded_offsets(), expected.raw_encoded_offsets())
      << label;
  EXPECT_EQ(actual.collection_frequency(), expected.collection_frequency())
      << label;
  EXPECT_EQ(actual.raw_frontier_start(), expected.raw_frontier_start())
      << label;
  EXPECT_EQ(actual.raw_frontier_tf(), expected.raw_frontier_tf()) << label;
  EXPECT_EQ(actual.raw_frontier_doc_length(),
            expected.raw_frontier_doc_length())
      << label;
}

void ExpectSameSegments(const SegmentedIndex& expected,
                        const SegmentedIndex& actual) {
  ASSERT_EQ(actual.segment_count(), expected.segment_count());
  for (size_t s = 0; s < expected.segment_count(); ++s) {
    const SegmentedIndex::Segment& want = expected.segment(s);
    const SegmentedIndex::Segment& got = actual.segment(s);
    EXPECT_EQ(got.base, want.base) << "segment " << s;
    EXPECT_EQ(got.index.doc_lengths(), want.index.doc_lengths())
        << "segment " << s;
    EXPECT_EQ(got.index.total_words(), want.index.total_words());
    EXPECT_EQ(got.index.has_block_max(), want.index.has_block_max());
    ASSERT_EQ(got.index.term_count(), want.index.term_count());
    for (TermId t = 0; t < want.index.term_count(); ++t) {
      ASSERT_EQ(got.index.TermText(t), want.index.TermText(t));
      ExpectSameList(want.index.postings(t), got.index.postings(t),
                     "segment " + std::to_string(s) + " term " +
                         want.index.TermText(t));
    }
  }
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
  EXPECT_EQ(segmented->doc_count(), 0u);
}

TEST(SegmentedIndexTest, SegmentsPartitionTheDocSpace) {
  InvertedIndex index = BuildSmallIndex(101);
  auto segmented = SegmentedIndex::BuildFromMonolithic(index, 4);
  ASSERT_TRUE(segmented.ok());
  EXPECT_EQ(segmented->doc_count(), index.doc_count());
  EXPECT_EQ(segmented->total_words(), index.total_words());
  DocId next = 0;
  uint64_t docs = 0, words = 0;
  for (size_t s = 0; s < segmented->segment_count(); ++s) {
    const SegmentedIndex::Segment& seg = segmented->segment(s);
    EXPECT_EQ(seg.base, next) << "segment " << s;
    EXPECT_GT(seg.index.doc_count(), 0u);
    next += static_cast<DocId>(seg.index.doc_count());
    docs += seg.index.doc_count();
    words += seg.index.total_words();
  }
  EXPECT_EQ(docs, index.doc_count());
  EXPECT_EQ(words, index.total_words());
}

TEST(SegmentedIndexTest, SharedVocabularyInvariant) {
  // Invariant 1: every segment interns the full monolithic vocabulary in
  // dictionary order, so TermIds are shared across segments and the
  // monolith — including for terms absent from a segment.
  InvertedIndex index = BuildSmallIndex(60);
  auto segmented = SegmentedIndex::BuildFromMonolithic(index, 5);
  ASSERT_TRUE(segmented.ok());
  for (size_t s = 0; s < segmented->segment_count(); ++s) {
    const InvertedIndex& local = segmented->segment(s).index;
    ASSERT_EQ(local.term_count(), index.term_count()) << "segment " << s;
    for (TermId t = 0; t < index.term_count(); ++t) {
      ASSERT_EQ(local.TermText(t), index.TermText(t))
          << "segment " << s << " term " << t;
    }
  }
}

TEST(SegmentedIndexTest, GlobalStatsMatchMonolith) {
  // Invariant 2: collection-level statistics exposed through each
  // segment's GlobalStats are those of the whole corpus.
  InvertedIndex index = BuildSmallIndex(80);
  auto segmented = SegmentedIndex::BuildFromMonolithic(index, 3);
  ASSERT_TRUE(segmented.ok());
  for (size_t s = 0; s < segmented->segment_count(); ++s) {
    const SegmentedIndex::Segment& seg = segmented->segment(s);
    StatsView stats(&seg.index, /*overlay=*/nullptr, &seg.stats);
    EXPECT_EQ(stats.CollectionSize(), index.doc_count());
    EXPECT_DOUBLE_EQ(stats.AverageDocLength(), index.average_doc_length());
    for (TermId t = 0; t < index.term_count(); ++t) {
      ASSERT_EQ(stats.DocFreq(t), index.DocFreq(t))
          << "segment " << s << " term " << index.TermText(t);
      ASSERT_EQ(stats.CollectionFreq(t), index.CollectionFreq(t))
          << "segment " << s << " term " << index.TermText(t);
    }
  }
}

TEST(SegmentedIndexTest, PerDocumentStatsResolveLocally) {
  InvertedIndex index = BuildSmallIndex(80);
  auto segmented = SegmentedIndex::BuildFromMonolithic(index, 3);
  ASSERT_TRUE(segmented.ok());
  for (size_t s = 0; s < segmented->segment_count(); ++s) {
    const SegmentedIndex::Segment& seg = segmented->segment(s);
    for (DocId local = 0; local < seg.index.doc_count(); ++local) {
      const DocId global = segmented->ToGlobal(s, local);
      ASSERT_EQ(seg.index.doc_length(local), index.doc_length(global));
      for (TermId t = 0; t < index.term_count(); ++t) {
        ASSERT_EQ(seg.index.TermFreqInDoc(t, local),
                  index.TermFreqInDoc(t, global))
            << "segment " << s << " doc " << global << " term "
            << index.TermText(t);
      }
    }
  }
}

TEST(SegmentedIndexTest, PostingsSliceExactlyWithPositions) {
  // Rebuild the global posting view from segment postings and compare,
  // positions included (positional predicates run per segment).
  InvertedIndex index = BuildSmallIndex(50);
  auto segmented = SegmentedIndex::BuildFromMonolithic(index, 4);
  ASSERT_TRUE(segmented.ok());
  for (TermId t = 0; t < index.term_count(); ++t) {
    std::vector<std::pair<DocId, std::vector<Offset>>> rebuilt;
    for (size_t s = 0; s < segmented->segment_count(); ++s) {
      const SegmentedIndex::Segment& seg = segmented->segment(s);
      const PostingList& list = seg.index.postings(t);
      for (size_t p = 0; p < list.doc_count(); ++p) {
        rebuilt.emplace_back(segmented->ToGlobal(s, list.doc_at(p)),
                             list.OffsetsAt(p));
      }
    }
    const PostingList& global = index.postings(t);
    ASSERT_EQ(rebuilt.size(), global.doc_count()) << index.TermText(t);
    for (size_t p = 0; p < global.doc_count(); ++p) {
      ASSERT_EQ(rebuilt[p].first, global.doc_at(p)) << index.TermText(t);
      ASSERT_EQ(rebuilt[p].second, global.OffsetsAt(p)) << index.TermText(t);
    }
  }
}

TEST(SegmentedIndexTest, GlobalStatsSurviveMove) {
  // GlobalStats point at heap buffers owned by the SegmentedIndex; a move
  // of the owner must not dangle them.
  InvertedIndex index = BuildSmallIndex(30);
  auto built = SegmentedIndex::BuildFromMonolithic(index, 2);
  ASSERT_TRUE(built.ok());
  SegmentedIndex moved = std::move(built).value();
  for (size_t s = 0; s < moved.segment_count(); ++s) {
    const SegmentedIndex::Segment& seg = moved.segment(s);
    StatsView stats(&seg.index, nullptr, &seg.stats);
    for (TermId t = 0; t < index.term_count(); ++t) {
      ASSERT_EQ(stats.DocFreq(t), index.DocFreq(t));
    }
  }
}

TEST(SegmentedIndexTest, SingleSegmentEqualsMonolith) {
  InvertedIndex index = BuildSmallIndex(25);
  auto segmented = SegmentedIndex::BuildFromMonolithic(index, 1);
  ASSERT_TRUE(segmented.ok());
  ASSERT_EQ(segmented->segment_count(), 1u);
  const SegmentedIndex::Segment& seg = segmented->segment(0);
  EXPECT_EQ(seg.base, 0u);
  EXPECT_EQ(seg.index.doc_count(), index.doc_count());
  EXPECT_EQ(seg.index.total_words(), index.total_words());
}

TEST(SegmentedIndexTest, SliceCopyEqualsPerPostingReencode) {
  // Each segment's postings, sliced by range copy, are byte-equal to the
  // decode + AddDocument + BuildBlockMax path, for segment counts down to
  // one document per segment (where most terms are absent).
  InvertedIndex index = BuildSmallIndex(40);
  const size_t docs = static_cast<size_t>(index.doc_count());
  for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                         docs + 1}) {
    auto segmented = SegmentedIndex::BuildFromMonolithic(index, n);
    ASSERT_TRUE(segmented.ok()) << segmented.status();
    size_t absent = 0;
    for (size_t s = 0; s < segmented->segment_count(); ++s) {
      const SegmentedIndex::Segment& seg = segmented->segment(s);
      const DocId end = seg.base + static_cast<DocId>(seg.index.doc_count());
      for (TermId t = 0; t < index.term_count(); ++t) {
        const PostingList& got = seg.index.postings(t);
        if (got.doc_count() == 0) ++absent;
        ExpectSameList(ReencodedSlice(index, t, seg.base, end), got,
                       "n=" + std::to_string(n) + " segment " +
                           std::to_string(s) + " term " + index.TermText(t));
      }
    }
    if (n > 1) {
      EXPECT_GT(absent, 0u) << "n=" << n;
    }
  }
}

TEST(SegmentedIndexTest, MappedSourceSegmentsLikeEagerLoad) {
  // `--mmap-index --segments N`: segmenting a packed (v5 mmap) index
  // decodes through the block cache and must yield the same segments as
  // segmenting the eager load of the same file.
  InvertedIndex built = BuildSmallIndex(300);
  const std::string path = ::testing::TempDir() + "/graft_" +
                           std::to_string(::getpid()) + "_segment_mmap.idx";
  ASSERT_TRUE(SaveIndexV5(built, path).ok());
  auto eager = LoadIndex(path);
  ASSERT_TRUE(eager.ok()) << eager.status();
  auto mapped = LoadIndexMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(mapped->is_packed());
  for (const size_t n : {size_t{1}, size_t{3}, size_t{7}}) {
    auto from_eager = SegmentedIndex::BuildFromMonolithic(*eager, n);
    auto from_mapped = SegmentedIndex::BuildFromMonolithic(*mapped, n);
    ASSERT_TRUE(from_eager.ok()) << from_eager.status();
    ASSERT_TRUE(from_mapped.ok()) << from_mapped.status();
    ExpectSameSegments(*from_eager, *from_mapped);
  }
  std::remove(path.c_str());
}

TEST(SegmentedIndexTest, ParallelBuildEqualsSerialBuild) {
  // Segments built concurrently (the bundle loader's engine pool, any
  // size) are identical to a serial build, and rank bit-identically to
  // the monolithic index under every scheme.
  constexpr uint64_t kDocs = 300;
  constexpr size_t kSegments = 4;
  const InvertedIndex index = BuildSmallIndex(kDocs);
  auto serial = SegmentedIndex::BuildFromMonolithic(index, kSegments);
  ASSERT_TRUE(serial.ok()) << serial.status();
  const core::Engine monolithic(&index);
  for (const size_t pool_threads : {size_t{0}, size_t{3}}) {
    auto bundle = core::MakeEngineBundle(BuildSmallIndex(kDocs), kSegments,
                                         pool_threads);
    ASSERT_TRUE(bundle.ok()) << bundle.status();
    ASSERT_NE(bundle->segmented, nullptr);
    ExpectSameSegments(*serial, *bundle->segmented);
    for (const char* scheme :
         {"AnySum", "AnyProd", "SumBest", "Lucene", "JoinNormalized",
          "MeanSum", "EventModel", "BestSumMinDist"}) {
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
          ASSERT_EQ(got->results.size(), want->results.size())
              << scheme << " " << query << " k=" << k;
          for (size_t i = 0; i < want->results.size(); ++i) {
            EXPECT_EQ(got->results[i].doc, want->results[i].doc)
                << scheme << " " << query << " k=" << k << " rank " << i;
            EXPECT_EQ(got->results[i].score, want->results[i].score)
                << scheme << " " << query << " k=" << k << " rank " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace graft::index
