#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "index/posting_list.h"
#include "index/stats.h"
#include "testutil/index_files.h"
#include "text/corpus.h"
#include "text/tokenizer.h"

namespace graft::index {
namespace {

InvertedIndex SmallIndex() {
  IndexBuilder builder;
  builder.AddDocumentStrings(text::Tokenize("free software wine emulator"));
  builder.AddDocumentStrings(text::Tokenize("windows emulator free free"));
  builder.AddDocumentStrings(text::Tokenize("fault line san francisco"));
  return builder.Build();
}

// A built index of `docs` documents over one term, whose positions in
// document d are `positions(d)` (none: d lacks the term).
InvertedIndex OneTermIndex(
    DocId docs, const std::function<std::vector<Offset>(DocId)>& positions) {
  IndexBuilder builder;
  for (DocId d = 0; d < docs; ++d) {
    const std::vector<Offset> offsets = positions(d);
    const std::vector<std::string_view> tokens(offsets.size(), "t");
    builder.AddDocumentPositioned(tokens, offsets);
  }
  return builder.Build();
}

TEST(PostingListTest, AddAndAccess) {
  const InvertedIndex index = OneTermIndex(43, [](DocId d) {
    return d == 10   ? std::vector<Offset>{1, 5, 9}
           : d == 42 ? std::vector<Offset>{0}
                     : std::vector<Offset>{};
  });
  const PostingList& list = index.postings(0);
  EXPECT_EQ(list.doc_count(), 2u);
  EXPECT_EQ(list.collection_frequency(), 4u);
  EXPECT_EQ(list.doc_at(0), 10u);
  EXPECT_EQ(list.tf_at(0), 3u);
  ASSERT_EQ(list.OffsetsAt(0).size(), 3u);
  EXPECT_EQ(list.OffsetsAt(0)[2], 9u);
  EXPECT_EQ(list.OffsetsAt(1)[0], 0u);
}

TEST(PostingListTest, GallopFindsTargets) {
  const InvertedIndex index = OneTermIndex(1000, [](DocId d) {
    return d % 3 == 0 ? std::vector<Offset>{0} : std::vector<Offset>{};
  });
  const PostingList& list = index.postings(0);
  PostingCursor cursor(&list);
  cursor.SkipTo(0);
  EXPECT_EQ(cursor.position(), 0u);
  cursor.SkipTo(301);
  EXPECT_EQ(cursor.doc(), 303u);  // next multiple of 3
  cursor.SkipTo(999);
  EXPECT_EQ(cursor.doc(), 999u);
  cursor.SkipTo(1000);
  EXPECT_TRUE(cursor.AtEnd());
  EXPECT_EQ(cursor.position(), list.doc_count());
  // Galloping from the middle, across blocks.
  PostingCursor mid(&list);
  mid.SkipTo(500);
  EXPECT_EQ(mid.doc(), 501u);
  mid.SkipTo(800);
  EXPECT_EQ(mid.doc(), 801u);
}

// AppendFrontiers as it was first written: each block's (tf, length)
// points sorted tf descending, length ascending, then swept.
std::vector<uint32_t> SortedSkylineFrontiers(
    std::span<const DocId> docs, std::span<const uint32_t> tfs,
    std::span<const uint32_t> doc_lengths) {
  std::vector<uint32_t> out{0};
  std::vector<std::pair<uint32_t, uint32_t>> frontier;
  for (size_t begin = 0; begin < docs.size();
       begin += PostingList::kBlockSize) {
    const size_t end =
        std::min(docs.size(), begin + PostingList::kBlockSize);
    std::vector<std::pair<uint32_t, uint32_t>> points;
    uint32_t block_min_len = UINT32_MAX;
    for (size_t i = begin; i < end; ++i) {
      points.emplace_back(tfs[i], doc_lengths[docs[i]]);
      block_min_len = std::min(block_min_len, doc_lengths[docs[i]]);
    }
    std::sort(points.begin(), points.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    const size_t emitted_before = frontier.size();
    uint64_t running_min = UINT64_MAX;
    for (const auto& [tf, len] : points) {
      if (len >= running_min) continue;
      if (frontier.size() - emitted_before ==
              PostingList::kMaxFrontierPoints - 1 &&
          len != block_min_len) {
        frontier.emplace_back(tf, block_min_len);
        break;
      }
      frontier.emplace_back(tf, len);
      running_min = len;
    }
    out.push_back(static_cast<uint32_t>(frontier.size()));
  }
  for (const auto& point : frontier) out.push_back(point.first);
  for (const auto& point : frontier) out.push_back(point.second);
  return out;
}

TEST(PostingListTest, FrontierSweepMatchesSortedSkyline) {
  std::mt19937 rng(26);
  const auto uniform = [&rng](uint32_t lo, uint32_t hi) {
    return std::uniform_int_distribution<uint32_t>(lo, hi)(rng);
  };
  // Each case gives posting i's tf and its document's length.
  struct Case {
    const char* name;
    size_t postings;
    std::function<std::pair<uint32_t, uint32_t>(size_t)> point;
  };
  const size_t kBlock = PostingList::kBlockSize;
  const std::vector<Case> cases = {
      {"one posting", 1,
       [&](size_t) { return std::pair(uniform(1, 9), uniform(1, 500)); }},
      {"full block", kBlock,
       [&](size_t) { return std::pair(uniform(1, 9), uniform(1, 500)); }},
      {"last partial block", 3 * kBlock + 37,
       [&](size_t) { return std::pair(uniform(1, 20), uniform(1, 500)); }},
      {"all-equal tfs", 2 * kBlock,
       [&](size_t) { return std::pair(3u, uniform(1, 500)); }},
      // Lengths fall with tf, so every point is on the skyline: the cap.
      {"falling lengths past the cap", 2 * kBlock + 5,
       [&](size_t i) {
         const uint32_t tf = static_cast<uint32_t>(i % 40) + 1;
         return std::pair(tf, 10 * tf + uniform(0, 9));
       }},
      {"ties in length", 2 * kBlock,
       [&](size_t) { return std::pair(uniform(1, 12), uniform(1, 4)); }},
      {"tfs above the block size", 2 * kBlock,
       [&](size_t) { return std::pair(uniform(1, 1000), uniform(1, 500)); }},
  };
  bool capped = false;
  for (const Case& c : cases) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<DocId> docs;
      std::vector<uint32_t> tfs;
      std::vector<uint32_t> lengths;
      for (size_t i = 0; i < c.postings; ++i) {
        const auto [tf, len] = c.point(i);
        docs.push_back(static_cast<DocId>(i));
        tfs.push_back(tf);
        lengths.push_back(len);
      }
      std::vector<uint32_t> swept;
      AppendFrontiers(docs, tfs, lengths, &swept);
      ASSERT_EQ(swept, SortedSkylineFrontiers(docs, tfs, lengths))
          << c.name << ", trial " << trial;
      for (size_t b = 0; b < (c.postings + kBlock - 1) / kBlock; ++b) {
        capped |= swept[b + 1] - swept[b] == PostingList::kMaxFrontierPoints;
      }
    }
  }
  EXPECT_TRUE(capped) << "no block reached the frontier cap";
}

TEST(PostingCursorTest, SkipToAndIterate) {
  const InvertedIndex index = OneTermIndex(100, [](DocId d) {
    return d >= 2 && d % 2 == 0 ? std::vector<Offset>{7}
                                : std::vector<Offset>{};
  });
  const PostingList& list = index.postings(0);
  PostingCursor cursor(&list);
  EXPECT_FALSE(cursor.AtEnd());
  EXPECT_EQ(cursor.doc(), 2u);
  cursor.SkipTo(51);
  EXPECT_EQ(cursor.doc(), 52u);
  cursor.Next();
  EXPECT_EQ(cursor.doc(), 54u);
  cursor.SkipTo(99);
  EXPECT_TRUE(cursor.AtEnd());
}

TEST(InvertedIndexTest, BuildsDictionaryAndStats) {
  InvertedIndex index = SmallIndex();
  EXPECT_EQ(index.doc_count(), 3u);
  EXPECT_EQ(index.total_words(), 12u);
  EXPECT_EQ(index.doc_length(1), 4u);

  const TermId free_term = index.LookupTerm("free");
  ASSERT_NE(free_term, kInvalidTerm);
  EXPECT_EQ(index.DocFreq(free_term), 2u);
  EXPECT_EQ(index.CollectionFreq(free_term), 3u);
  EXPECT_EQ(index.TermFreqInDoc(free_term, 0), 1u);
  EXPECT_EQ(index.TermFreqInDoc(free_term, 1), 2u);
  EXPECT_EQ(index.TermFreqInDoc(free_term, 2), 0u);
  EXPECT_EQ(index.LookupTerm("absent"), kInvalidTerm);
}

TEST(InvertedIndexTest, OffsetsRecorded) {
  InvertedIndex index = SmallIndex();
  const TermId term = index.LookupTerm("free");
  const PostingList& list = index.postings(term);
  // doc 1: "windows emulator free free" -> offsets 2, 3.
  ASSERT_EQ(list.doc_at(1), 1u);
  const auto offsets = list.OffsetsAt(1);
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets[0], 2u);
  EXPECT_EQ(offsets[1], 3u);
}

TEST(StatsViewTest, OverlayWins) {
  InvertedIndex index = SmallIndex();
  StatsOverlay overlay;
  overlay.SetCollectionSize(4638535);
  overlay.SetDocFreq("free", 332335);
  overlay.SetDocLength(0, 207);

  StatsView plain(&index);
  StatsView overlaid(&index, &overlay);
  const TermId term = index.LookupTerm("free");

  EXPECT_EQ(plain.CollectionSize(), 3u);
  EXPECT_EQ(overlaid.CollectionSize(), 4638535u);
  EXPECT_EQ(plain.DocFreq(term), 2u);
  EXPECT_EQ(overlaid.DocFreq(term), 332335u);
  EXPECT_EQ(plain.DocLength(0), 4u);
  EXPECT_EQ(overlaid.DocLength(0), 207u);
  // Unoverlaid doc falls through.
  EXPECT_EQ(overlaid.DocLength(1), 4u);
}

// A numeric field of /proc/self/status, such as "VmRSS" (in kB).
uint64_t StatusField(const std::string& name) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(name + ":", 0) == 0) {
      return std::stoull(line.substr(name.size() + 1));
    }
  }
  ADD_FAILURE() << "no " << name << " line in /proc/self/status";
  return 0;
}

// This process's resident set, in bytes.
uint64_t ResidentBytes() { return StatusField("VmRSS") * 1024; }

TEST(IndexBuilderTest, BuildLeavesNoBuilderHeapResident) {
  // Build() hands the index exact-size columns and returns the builder's
  // freed heap to the system, so once the builder is gone the process
  // holds little more than what the index owns. The allocator check
  // needs glibc's heap; sanitizer runtimes keep freed memory on purpose.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc malloc without a sanitizer runtime";
#else
  const uint64_t before = ResidentBytes();
  InvertedIndex index;
  {
    IndexBuilder builder;
    {
      text::CorpusGenerator generator(text::WikipediaLikeConfig(20000));
      generator.Generate(
          [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
            builder.AddDocument(tokens);
          });
    }
    index = builder.Build();
  }
  const uint64_t growth = ResidentBytes() - before;

  // What the index holds: its columns, and a dictionary of term texts,
  // one list view per term and a table of under four slots per term.
  uint64_t held = index.doc_lengths().size() * sizeof(uint32_t) +
                  index.term_count() * 4 * sizeof(TermId);
  for (TermId t = 0; t < index.term_count(); ++t) {
    const PostingList& list = index.postings(t);
    held += sizeof(std::string) + index.TermText(t).size() +
            sizeof(PostingList) + list.docs().size_bytes() +
            list.tfs().size_bytes() + list.offset_starts().size_bytes() +
            list.position_bytes().size_bytes() +
            list.frontier_starts().size_bytes() +
            list.frontier_tfs().size_bytes() +
            list.frontier_doc_lengths().size_bytes();
  }
  EXPECT_LE(static_cast<double>(growth), 1.2 * static_cast<double>(held))
      << "resident growth " << growth << " bytes for " << held
      << " bytes held (ratio "
      << static_cast<double>(growth) / static_cast<double>(held) << ")";
#endif
}

TEST(IndexBuilderTest, MultiBatchBuildSavesPinnedBytes) {
  // Over three batches, so the worker inverts most of the corpus and
  // documents straddle batch boundaries.
  const InvertedIndex index = testutil::SeededCorpusIndex(4000, 20110612);
  ASSERT_GT(index.total_words(), 3 * IndexBuilder::kBatchTokens);
  const std::string path = testutil::TempPath("multi_batch");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  const std::string bytes = testutil::ReadFile(path);
  std::remove(path.c_str());
  // Size and CRC32C of the v5 file the single-threaded builder saved.
  EXPECT_EQ(bytes.size(), 6472536u);
  EXPECT_EQ(common::Crc32c(bytes.data(), bytes.size()), 0xaebc5496u);
}

TEST(IndexBuilderTest, DestroyedMidBuildJoinsWorker) {
  uint64_t during = 0;
  {
    IndexBuilder builder;
    std::vector<std::string> texts;
    for (int t = 0; t < 1000; ++t) texts.push_back(std::to_string(t));
    const std::vector<std::string_view> tokens(texts.begin(), texts.end());
    // One token past two batches: both have been handed to the worker.
    size_t added = 0;
    while (added <= 2 * IndexBuilder::kBatchTokens) {
      builder.AddDocument(tokens);
      added += tokens.size();
    }
    during = StatusField("Threads");
  }
  // The destructor joined the worker. (A sanitizer runtime may start a
  // thread of its own with the worker, so the count before is no guide.)
  EXPECT_EQ(StatusField("Threads"), during - 1);
}

TEST(IndexIoTest, SaveLoadRoundTrip) {
  InvertedIndex index = SmallIndex();
  const std::string path = ::testing::TempDir() + "/graft_index_test.idx";
  ASSERT_TRUE(SaveIndex(index, path).ok());

  auto loaded_or = LoadIndex(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const InvertedIndex& loaded = *loaded_or;

  EXPECT_EQ(loaded.doc_count(), index.doc_count());
  EXPECT_EQ(loaded.total_words(), index.total_words());
  EXPECT_EQ(loaded.term_count(), index.term_count());
  for (TermId t = 0; t < index.term_count(); ++t) {
    EXPECT_EQ(loaded.TermText(t), index.TermText(t));
    EXPECT_EQ(loaded.DocFreq(t), index.DocFreq(t));
    EXPECT_EQ(loaded.CollectionFreq(t), index.CollectionFreq(t));
    const PostingList& a = index.postings(t);
    const PostingList& b = loaded.postings(t);
    ASSERT_EQ(a.doc_count(), b.doc_count());
    for (size_t i = 0; i < a.doc_count(); ++i) {
      EXPECT_EQ(a.doc_at(i), b.doc_at(i));
      ASSERT_EQ(a.tf_at(i), b.tf_at(i));
      for (size_t j = 0; j < a.tf_at(i); ++j) {
        EXPECT_EQ(a.OffsetsAt(i)[j], b.OffsetsAt(i)[j]);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(IndexIoTest, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/graft_garbage.idx";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not an index", f);
  std::fclose(f);
  const auto result = LoadIndex(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(IndexIoTest, MissingFileIsIOError) {
  const auto result = LoadIndex("/nonexistent/graft.idx");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace graft::index
