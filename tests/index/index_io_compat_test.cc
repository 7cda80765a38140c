// Format compatibility: v5 is the one written format; v3 and v4 are
// read-only inputs, pinned by committed fixtures (testutil/index_files.h).
//
// v4 added per-term block-max frontier arrays (the Pareto frontier of
// each posting block's (tf, document length) pairs) inside the per-term
// checksummed records; v3 has none, so its frontiers are computed at load.
// v5 replaces the materialized posting arrays with delta-encoded
// bit-packed blocks in an mmap-able sectioned layout
// (docs/index-format.md). Every layout must decode to the same postings —
// or GRAFT's score-consistency guarantee breaks. The contracts under test:
//   * each v3/v4 fixture loads into an index equal to the builder's output
//     for the same seeded corpus (docs, tfs, offset bytes, frontiers), and
//     MaxScore runs on it with results bit-identical to the built index;
//   * a v3/v4 term record that passes its CRC but breaks a posting
//     invariant is rejected as kCorruption;
//   * single-byte flips inside the v4 block-max arrays are caught by the
//     per-term CRC;
//   * a v5 round trip is bit-identical on the eager and the mapped path,
//     and every single-byte flip of a v5 file fails both loads.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/packed_ints.h"
#include "core/engine.h"
#include "index/index_format.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "index/posting_list.h"
#include "testutil/index_files.h"

namespace graft::index {
namespace {

using testutil::FixturePath;
using testutil::ReadFile;
using testutil::TempPath;
using testutil::WriteFile;

InvertedIndex BuildSmallIndex() { return testutil::SeededCorpusIndex(60, 7); }

// Large enough that common terms span many 128-doc blocks and top-10
// pruning reliably lands whole-block skips (8000 docs is the floor CI
// uses for the pruning bench's same assertion; at 60 docs every term is
// a single block and nothing can be skipped).
InvertedIndex BuildPruneIndex() {
  return testutil::SeededCorpusIndex(8000, 13);
}

// A few documents only: small enough that the v5 bit-flip fuzz below can
// afford to flip EVERY byte of the file.
InvertedIndex BuildTinyIndex() { return testutil::SeededCorpusIndex(8, 21); }

template <typename T>
std::vector<T> Vec(std::span<const T> values) {
  return {values.begin(), values.end()};
}

void ExpectSameIndex(const InvertedIndex& got, const InvertedIndex& want) {
  EXPECT_EQ(got.doc_count(), want.doc_count());
  EXPECT_EQ(got.total_words(), want.total_words());
  EXPECT_EQ(got.doc_lengths(), want.doc_lengths());
  ASSERT_EQ(got.term_count(), want.term_count());
  for (TermId t = 0; t < want.term_count(); ++t) {
    SCOPED_TRACE("term " + std::to_string(t));
    const PostingList& g = got.postings(t);
    const PostingList& w = want.postings(t);
    EXPECT_EQ(got.TermText(t), want.TermText(t));
    EXPECT_EQ(Vec(g.docs()), Vec(w.docs()));
    EXPECT_EQ(Vec(g.tfs()), Vec(w.tfs()));
    EXPECT_EQ(Vec(g.offset_starts()), Vec(w.offset_starts()));
    EXPECT_EQ(Vec(g.position_bytes()), Vec(w.position_bytes()));
    EXPECT_EQ(g.collection_frequency(), w.collection_frequency());
    EXPECT_EQ(Vec(g.frontier_starts()), Vec(w.frontier_starts()));
    EXPECT_EQ(Vec(g.frontier_tfs()), Vec(w.frontier_tfs()));
    EXPECT_EQ(Vec(g.frontier_doc_lengths()), Vec(w.frontier_doc_lengths()));
  }
}

// Top-10 over `got` must match `want` to the last bit, through the same
// operator — MaxScore wherever the built index runs it.
void ExpectSameTopK(const InvertedIndex& got, const InvertedIndex& want) {
  const core::Engine got_engine(&got);
  const core::Engine want_engine(&want);
  core::SearchOptions options;
  options.top_k = 10;
  for (const char* query :
       {"city", "free | software | windows", "city county | service line",
        "(free software)WINDOW[20] system"}) {
    for (const char* scheme : {"AnySum", "Lucene", "MeanSum"}) {
      SCOPED_TRACE(std::string(query) + " / " + scheme);
      auto a = want_engine.Search(query, scheme, options);
      auto b = got_engine.Search(query, scheme, options);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(b->used_rank_processing, a->used_rank_processing);
      EXPECT_EQ(b->used_block_max_pruning, a->used_block_max_pruning);
      ASSERT_EQ(b->results.size(), a->results.size());
      for (size_t i = 0; i < a->results.size(); ++i) {
        EXPECT_EQ(b->results[i].doc, a->results[i].doc) << "rank " << i;
        EXPECT_EQ(b->results[i].score, a->results[i].score) << "rank " << i;
      }
    }
  }
  auto pruned = got_engine.Search("city", "AnySum", options);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_TRUE(pruned->used_block_max_pruning);
  EXPECT_EQ(pruned->results.size(), 10u);
}

TEST(IndexIoCompatTest, V4FixtureLoadsAsBuilt) {
  const std::string path = FixturePath("small60_v4.idx");
  EXPECT_EQ(ReadFile(path)[7], '4');
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const InvertedIndex built = BuildSmallIndex();
  ExpectSameIndex(*loaded, built);
  ExpectSameTopK(*loaded, built);
}

TEST(IndexIoCompatTest, V4FixtureResavesToPinnedV5Bytes) {
  // The v5 writer is deterministic; this pins its exact output for the
  // committed v4 fixture, so a writer refactor cannot change a saved byte.
  auto loaded = LoadIndex(FixturePath("small60_v4.idx"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::string path = TempPath("resave_small60");
  ASSERT_TRUE(SaveIndex(*loaded, path).ok());
  const std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  // Size and CRC32C of the v5 file the writer produced before it stopped
  // holding per-term and per-block plan arrays.
  EXPECT_EQ(bytes.size(), 414228u);
  EXPECT_EQ(common::Crc32c(bytes.data(), bytes.size()), 0x1e002438u);
}

TEST(IndexIoCompatTest, V4TinyFixtureLoadsAsBuilt) {
  auto loaded = LoadIndex(FixturePath("tiny8_v4.idx"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameIndex(*loaded, BuildTinyIndex());
}

TEST(IndexIoCompatTest, V3LoadsWithComputedBlockMax) {
  const std::string path = FixturePath("small60_v3.idx");
  EXPECT_EQ(ReadFile(path)[7], '3');
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // The frontiers the v3 file lacks are computed at load, equal to the
  // ones the builder computes.
  const InvertedIndex built = BuildSmallIndex();
  ExpectSameIndex(*loaded, built);

  // So MaxScore runs on a v3 index too, bit-identically to the built one.
  ExpectSameTopK(*loaded, built);
}

TEST(IndexIoCompatTest, V3AndV4ResultsBitIdentical) {
  auto v3 = LoadIndex(FixturePath("small60_v3.idx"));
  auto v4 = LoadIndex(FixturePath("small60_v4.idx"));
  ASSERT_TRUE(v3.ok()) << v3.status();
  ASSERT_TRUE(v4.ok()) << v4.status();
  ExpectSameTopK(*v3, *v4);
}

TEST(IndexIoCompatTest, MappedLoadOfLegacyFixtureMaterializes) {
  // v3/v4 have no packed sections: the mapped entry point converts them
  // exactly as LoadIndex does.
  for (const char* name : {"small60_v3.idx", "small60_v4.idx"}) {
    SCOPED_TRACE(name);
    auto mapped = LoadIndexMapped(FixturePath(name));
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    EXPECT_FALSE(mapped->is_packed());
    ExpectSameIndex(*mapped, BuildSmallIndex());
  }
}

// Byte positions inside one v3/v4 term record, found by walking the
// layout (docs/index-format.md): every array is u64 length-prefixed and
// the record ends with u64 collection_frequency and a u32 CRC32C over all
// of the record's bytes before it.
struct LegacyRecord {
  size_t begin = 0;     // first byte under the record's CRC
  size_t docs = 0;      // first DocId
  size_t tfs = 0;       // first tf
  size_t starts = 0;    // first offset start (u64)
  size_t frontier = 0;  // v4: length prefix of frontier_start
  size_t crc = 0;       // the stored CRC
  uint64_t postings = 0;
};

uint64_t ReadU64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

// The first term record of a v3/v4 image with at least `min_postings`.
LegacyRecord FindLegacyRecord(const std::string& bytes, bool v4,
                              uint64_t min_postings) {
  size_t off = 8 + 8 + 8;                       // prologue, two u64s
  off += 8 + ReadU64(bytes, off) * 4 + 4;       // doc_lengths + CRC
  const uint64_t terms = ReadU64(bytes, off);
  off += 8 + 4;                                 // term_count + CRC
  for (uint64_t t = 0; t < terms; ++t) {
    LegacyRecord r;
    r.begin = off;
    uint32_t text_len = 0;
    std::memcpy(&text_len, bytes.data() + off, sizeof(text_len));
    off += 4 + text_len;
    r.postings = ReadU64(bytes, off);
    r.docs = off + 8;
    off += 8 + r.postings * sizeof(DocId);
    r.tfs = off + 8;
    off += 8 + ReadU64(bytes, off) * sizeof(uint32_t);
    r.starts = off + 8;
    off += 8 + ReadU64(bytes, off) * sizeof(uint64_t);
    off += 8 + ReadU64(bytes, off);             // encoded offsets
    r.frontier = off;
    for (int array = 0; v4 && array < 3; ++array) {
      off += 8 + ReadU64(bytes, off) * sizeof(uint32_t);
    }
    off += 8;                                   // collection frequency
    r.crc = off;
    off += 4;
    if (r.postings >= min_postings) return r;
  }
  ADD_FAILURE() << "no term record with " << min_postings << " postings";
  return {};
}

// Re-stamps the record's CRC so a forged edit passes the checksum and
// only the structural checks can catch it.
void ForgeCrc(std::string* bytes, const LegacyRecord& r) {
  const uint32_t crc = common::Crc32c(bytes->data() + r.begin,
                                      r.crc - r.begin);
  std::memcpy(bytes->data() + r.crc, &crc, sizeof(crc));
}

TEST(IndexIoCompatTest, BlockMaxSectionBitFlipsRejected) {
  // The v4 frontier arrays live INSIDE the per-term checksummed record,
  // so every flip in them must come back as kCorruption.
  const std::string bytes = ReadFile(FixturePath("small60_v4.idx"));
  const LegacyRecord r = FindLegacyRecord(bytes, /*v4=*/true, 1);
  const InvertedIndex built = BuildSmallIndex();
  const uint64_t delimiters = ReadU64(bytes, r.frontier);
  ASSERT_EQ(delimiters, built.postings(0).block_count() + 1);
  const size_t start_entry = r.frontier + 8;          // first delimiter
  const size_t tf_prefix = r.frontier + 8 + delimiters * 4;
  const uint64_t points = ReadU64(bytes, tf_prefix);
  ASSERT_EQ(points, built.postings(0).frontier_tfs().size());
  ASSERT_GE(points, 1u);
  const size_t tf_entry = tf_prefix + 8;              // first frontier tf
  const size_t len_entry = tf_prefix + 8 + points * 4 + 8;  // first length
  const std::string corrupt_path = TempPath("v4flip_corrupt.idx");
  for (const size_t target : {r.frontier, start_entry, tf_entry, len_entry}) {
    std::string corrupt = bytes;
    corrupt[target] = static_cast<char>(corrupt[target] ^ 0x5A);
    WriteFile(corrupt_path, corrupt);
    auto loaded = LoadIndex(corrupt_path);
    ASSERT_FALSE(loaded.ok())
        << "flip at offset " << target << " went undetected";
    EXPECT_TRUE(loaded.status().code() == StatusCode::kCorruption ||
                loaded.status().code() == StatusCode::kDataLoss)
        << "offset " << target << ": " << loaded.status();
  }
}

TEST(IndexIoCompatTest, LegacyRecordsBreakingPostingInvariantsRejected) {
  // A CRC-valid record with an out-of-range doc id used to load (and a v3
  // one would then index doc_lengths out of bounds while computing its
  // frontiers). Each forged edit below passes the checksum; the posting
  // invariants ParseV5 enforces for v5 must reject it.
  const std::string forged_path = TempPath("legacy_forged.idx");
  for (const char* name : {"small60_v3.idx", "small60_v4.idx"}) {
    const std::string bytes = ReadFile(FixturePath(name));
    const bool v4 = bytes[7] == '4';
    const LegacyRecord r = FindLegacyRecord(bytes, v4, 2);
    uint32_t doc0 = 0;
    std::memcpy(&doc0, bytes.data() + r.docs, sizeof(doc0));
    const struct {
      const char* label;
      size_t at;
      uint64_t value;
      size_t width;  // bytes of `value` stored at `at`
    } edits[] = {
        {"control: CRC re-stamped, nothing edited", 0, 0, 0},
        {"last doc id == doc_count",
         r.docs + (r.postings - 1) * sizeof(DocId), ReadU64(bytes, 8),
         sizeof(DocId)},
        {"repeated doc id", r.docs + sizeof(DocId), doc0, sizeof(DocId)},
        {"tf == 0", r.tfs, 0, sizeof(uint32_t)},
        {"tf above its position bytes", r.tfs,
         ReadU64(bytes, r.starts + 8) + 1, sizeof(uint32_t)},
        {"decreasing offset starts", r.starts + 8,
         ReadU64(bytes, r.starts + 16) + 1, sizeof(uint64_t)},
        {"collection frequency below posting count", r.crc - 8, 1,
         sizeof(uint64_t)},
    };
    for (const auto& edit : edits) {
      SCOPED_TRACE(std::string(name) + ": " + edit.label);
      std::string forged = bytes;
      std::memcpy(forged.data() + edit.at, &edit.value, edit.width);
      ForgeCrc(&forged, r);
      WriteFile(forged_path, forged);
      auto loaded = LoadIndex(forged_path);
      if (edit.width == 0) {
        EXPECT_TRUE(loaded.ok()) << loaded.status();
      } else {
        ASSERT_FALSE(loaded.ok());
        EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
            << loaded.status();
      }
    }

    // The same term with no postings at all: well-formed and CRC-valid,
    // but a list v5 cannot store, so it is rejected too.
    SCOPED_TRACE(std::string(name) + ": empty posting list");
    std::string record = bytes.substr(r.begin, r.docs - 8 - r.begin);
    const auto append_u64 = [&record](uint64_t v) {
      record.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    append_u64(0);                  // docs
    append_u64(0);                  // tfs
    append_u64(1);                  // offset_starts = {0}
    append_u64(0);
    append_u64(0);                  // encoded offsets
    if (v4) {
      append_u64(1);                // frontier_start = {0}, no points
      record.append(sizeof(uint32_t), '\0');
      append_u64(0);
      append_u64(0);
    }
    append_u64(0);                  // collection frequency
    const uint32_t crc = common::Crc32c(record.data(), record.size());
    record.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    WriteFile(forged_path,
              bytes.substr(0, r.begin) + record + bytes.substr(r.crc + 4));
    auto loaded = LoadIndex(forged_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << loaded.status();
  }
}

// ---------------------------------------------------------------------------
// v5: compressed, mmap-able postings.
// ---------------------------------------------------------------------------

TEST(IndexIoCompatTest, V5EagerRoundTripBitIdentical) {
  // Save, load eagerly (plain LoadIndex): every materialized array must
  // come back bit-identical to the source index — compression is lossless
  // by construction, and any deviation is a score-consistency bug.
  const InvertedIndex built = BuildSmallIndex();
  const std::string path = TempPath("v5.idx");
  ASSERT_TRUE(SaveIndex(built, path).ok());
  EXPECT_EQ(ReadFile(path)[7], '5');

  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->is_packed());  // eager load materializes
  ExpectSameIndex(*loaded, built);
}

TEST(IndexIoCompatTest, V5CompressesRelativeToV4) {
  const std::string v5_path = TempPath("v5cmp_v5.idx");
  ASSERT_TRUE(SaveIndex(BuildSmallIndex(), v5_path).ok());
  EXPECT_LT(ReadFile(v5_path).size(),
            ReadFile(FixturePath("small60_v4.idx")).size());
}

TEST(IndexIoCompatTest, V5MappedLoadDecodesIdentically) {
  // The packed (mmap) load path: no arrays are materialized; every
  // accessor decodes through the block cache. Compare each decoded value
  // against the source index, posting by posting.
  const InvertedIndex built = BuildSmallIndex();
  const std::string path = TempPath("v5map.idx");
  ASSERT_TRUE(SaveIndex(built, path).ok());

  auto mapped = LoadIndexMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->is_packed());
  EXPECT_NE(mapped->block_cache(), nullptr);
  EXPECT_NE(mapped->cache_generation(), 0u);
  ASSERT_EQ(mapped->term_count(), built.term_count());
  ASSERT_EQ(mapped->doc_count(), built.doc_count());
  for (DocId d = 0; d < built.doc_count(); ++d) {
    ASSERT_EQ(mapped->doc_length(d), built.doc_length(d)) << "doc " << d;
  }
  for (TermId t = 0; t < built.term_count(); ++t) {
    SCOPED_TRACE("term " + std::to_string(t));
    const PostingList& want = built.postings(t);
    const PostingList& got = mapped->postings(t);
    ASSERT_EQ(got.doc_count(), want.doc_count());
    EXPECT_EQ(got.collection_frequency(), want.collection_frequency());
    ASSERT_EQ(got.block_count(), want.block_count());
    for (size_t p = 0; p < want.doc_count(); ++p) {
      ASSERT_EQ(got.doc_at(p), want.doc_at(p)) << "posting " << p;
      ASSERT_EQ(got.tf_at(p), want.tf_at(p)) << "posting " << p;
      ASSERT_EQ(got.OffsetsAt(p), want.OffsetsAt(p)) << "posting " << p;
    }
    // SkipTo agrees at every reachable target (exact and between-docs).
    const auto skip = [](const PostingList& list, DocId target) {
      PostingCursor cursor(&list);
      cursor.SkipTo(target);
      return cursor.position();
    };
    for (size_t p = 0; p < want.doc_count(); ++p) {
      const DocId target = want.doc_at(p);
      ASSERT_EQ(skip(got, target), skip(want, target));
      ASSERT_EQ(skip(got, target + 1), skip(want, target + 1));
    }
    ASSERT_EQ(skip(got, static_cast<DocId>(built.doc_count())),
              skip(want, static_cast<DocId>(built.doc_count())));
  }
}

TEST(IndexIoCompatTest, V5SearchBitIdenticalAcrossLoadModes) {
  // Same queries, same schemes, three load modes of the same logical
  // index: the v4 fixture (materialized), v5 eager, v5 mapped. Scores
  // must agree to the last bit.
  const std::string v5_path = TempPath("v5modes_v5.idx");
  ASSERT_TRUE(SaveIndex(BuildSmallIndex(), v5_path).ok());
  auto v4 = LoadIndex(FixturePath("small60_v4.idx"));
  auto v5_eager = LoadIndex(v5_path);
  auto v5_mapped = LoadIndexMapped(v5_path);
  ASSERT_TRUE(v4.ok()) << v4.status();
  ASSERT_TRUE(v5_eager.ok()) << v5_eager.status();
  ASSERT_TRUE(v5_mapped.ok()) << v5_mapped.status();
  ExpectSameTopK(*v5_eager, *v4);
  ExpectSameTopK(*v5_mapped, *v4);
}

TEST(IndexIoCompatTest, V5MaxScoreSkipsBlocksWithoutPayloadDecodes) {
  // The point of the two-granularity cache: block-max pruning on a packed
  // index must align on headers and doc columns only — a SKIPPED block
  // never pays a kFull payload decode. Compare payload decodes between a
  // pruned top-k run and an exhaustive full-ranking run, each on a fresh
  // mapped load (private cache, nothing warm).
  const InvertedIndex built = BuildPruneIndex();
  const std::string path = TempPath("v5prune.idx");
  ASSERT_TRUE(SaveIndex(built, path).ok());

  const auto run = [&](bool rank, bool prune) {
    auto mapped = LoadIndexMapped(path);
    EXPECT_TRUE(mapped.ok()) << mapped.status();
    core::Engine engine(&*mapped);
    core::SearchOptions options;
    options.top_k = 10;
    options.allow_rank_processing = rank;
    options.allow_block_max_pruning = prune;
    // Mid-frequency filler vocabulary: hundreds of blocks whose per-block
    // max tf varies, the regime where whole-block ceiling skips fire (the
    // planted paper terms have uniform tf 1 and rarely skip).
    auto result = engine.Search("city", "AnySum", options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  };

  const core::SearchResult pruned = run(true, true);
  const core::SearchResult full = run(false, false);
  ASSERT_TRUE(pruned.used_block_max_pruning);
  ASSERT_GT(pruned.exec_stats.topk_blocks_skipped, 0u);
  // Cache traffic was harvested into the result's ExecStats, and the
  // pruned run's misses include doc-id-only fetches that never unpacked
  // a score payload...
  EXPECT_GT(pruned.exec_stats.block_cache_misses, 0u);
  EXPECT_LT(pruned.exec_stats.packed_payload_decodes,
            pruned.exec_stats.block_cache_misses);
  EXPECT_GT(full.exec_stats.packed_payload_decodes, 0u);
  // ...and the pruned run paid fewer payload decodes than the exhaustive
  // one — skipped blocks stayed packed.
  EXPECT_LT(pruned.exec_stats.packed_payload_decodes,
            full.exec_stats.packed_payload_decodes);
  // The harvest holds under term bounds too: a monolithic query runs
  // inline on the calling thread, whichever bound MaxScore uses.
  const core::SearchResult unpruned = run(true, false);
  EXPECT_TRUE(unpruned.used_rank_processing);
  EXPECT_FALSE(unpruned.used_block_max_pruning);
  EXPECT_GT(unpruned.exec_stats.block_cache_misses, 0u);
  EXPECT_GT(unpruned.exec_stats.docs_scored, 0u);
  EXPECT_EQ(unpruned.exec_stats.topk_blocks_skipped, 0u);
  // Neither bound changed the answer, only the work.
  ASSERT_EQ(pruned.results.size(), full.results.size());
  ASSERT_EQ(unpruned.results.size(), full.results.size());
  for (size_t i = 0; i < pruned.results.size(); ++i) {
    EXPECT_EQ(pruned.results[i].doc, full.results[i].doc);
    EXPECT_EQ(pruned.results[i].score, full.results[i].score);
    EXPECT_EQ(unpruned.results[i].doc, full.results[i].doc);
    EXPECT_EQ(unpruned.results[i].score, full.results[i].score);
  }
}

// The exhaustive v5 bit-flip fuzz, split over kFlipShards parameterized
// cases so no single ctest process carries the whole file.
constexpr int kFlipShards = 8;

class IndexIoCompatFlipTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexIoCompatFlipTest, V5EveryByteFlipRejected) {
  // The v5 layout is byte-accountable: prologue, section table, sections,
  // and alignment padding all sit under a CRC or an explicit zero check.
  // Flipping ANY single byte of the file must fail the load — on both the
  // eager and the mapped path, with the failure class the byte's region
  // names. This shard flips its contiguous slice of the file.
  const std::string path = TempPath("v5fuzz.idx");
  ASSERT_TRUE(SaveIndex(BuildTinyIndex(), path).ok());
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 128u);
  const std::string corrupt_path = TempPath("v5fuzz_corrupt.idx");
  WriteFile(corrupt_path, bytes);
  // Patch one byte in place per flip (and restore it after) instead of
  // rewriting the whole file: the loaders re-open the path every time.
  std::fstream corrupt(corrupt_path,
                       std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(corrupt.good());
  const auto put = [&corrupt](size_t at, char value) {
    corrupt.seekp(static_cast<std::streamoff>(at));
    corrupt.put(value);
    corrupt.flush();
    ASSERT_TRUE(corrupt.good());
  };

  const size_t shard = static_cast<size_t>(GetParam());
  const size_t begin = bytes.size() * shard / kFlipShards;
  const size_t end = bytes.size() * (shard + 1) / kFlipShards;
  for (size_t at = begin; at < end; ++at) {
    put(at, static_cast<char>(bytes[at] ^ 0x40));
    auto eager = LoadIndex(corrupt_path);
    ASSERT_FALSE(eager.ok()) << "eager load survived flip at byte " << at;
    auto mapped = LoadIndexMapped(corrupt_path);
    ASSERT_FALSE(mapped.ok()) << "mapped load survived flip at byte " << at;
    for (const Status& status : {eager.status(), mapped.status()}) {
      if (at < 7) {
        EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "byte " << at;
      } else if (at == 7) {
        EXPECT_EQ(status.code(), StatusCode::kVersionMismatch)
            << "byte " << at;
      } else {
        EXPECT_TRUE(status.code() == StatusCode::kCorruption ||
                    status.code() == StatusCode::kDataLoss)
            << "byte " << at << ": " << status;
      }
    }
    put(at, bytes[at]);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, IndexIoCompatFlipTest,
                         ::testing::Range(0, kFlipShards));

TEST(IndexIoCompatTest, V5TruncationRejectedAsDataLoss) {
  const std::string path = TempPath("v5trunc.idx");
  ASSERT_TRUE(SaveIndex(BuildTinyIndex(), path).ok());
  const std::string bytes = ReadFile(path);
  const std::string corrupt_path = TempPath("v5trunc_cut.idx");
  for (const size_t keep :
       {size_t{0}, size_t{4}, size_t{8}, size_t{64}, size_t{127},
        size_t{128}, bytes.size() / 2, bytes.size() - 1}) {
    WriteFile(corrupt_path, bytes.substr(0, keep));
    auto loaded = LoadIndexMapped(corrupt_path);
    ASSERT_FALSE(loaded.ok()) << "truncation to " << keep << " bytes loaded";
    EXPECT_TRUE(loaded.status().code() == StatusCode::kDataLoss ||
                loaded.status().code() == StatusCode::kCorruption ||
                loaded.status().code() == StatusCode::kVersionMismatch)
        << "keep=" << keep << ": " << loaded.status();
  }
}

TEST(IndexIoCompatTest, V5PackedIndexRefusesReSave) {
  // A packed index never materializes its arrays, so saving it again
  // requires an eager round trip; the save APIs say so instead of
  // crashing on the missing arrays.
  const std::string path = TempPath("v5resave.idx");
  ASSERT_TRUE(SaveIndex(BuildTinyIndex(), path).ok());
  auto mapped = LoadIndexMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const std::string out = TempPath("v5resave_out.idx");
  EXPECT_EQ(SaveIndex(*mapped, out).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(SaveIndexV5(*mapped, out).code(),
            StatusCode::kFailedPrecondition);
}

TEST(IndexIoCompatTest, EagerLoadOutlivesItsFile) {
  // An eager load copies out everything it serves, so overwriting the
  // file in place (same inode, no rename) and then unlinking it must not
  // change, or fault, any answer.
  const InvertedIndex built = BuildPruneIndex();
  const std::string path = TempPath("v5outlives.idx");
  ASSERT_TRUE(SaveIndex(built, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const size_t size = ReadFile(path).size();
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::string junk(size, '\xA5');
  ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
  ASSERT_EQ(std::fclose(f), 0);
  ASSERT_EQ(ReadFile(path), junk);
  ASSERT_EQ(std::remove(path.c_str()), 0);
  ExpectSameIndex(*loaded, built);
  ExpectSameTopK(*loaded, built);
}

// {offset, length} of v5 section `section` in a saved file; its CRC32C
// follows it.
std::pair<size_t, size_t> V5Section(const std::string& bytes,
                                    FmtV5Section section) {
  const size_t entry = 8 + 4 + static_cast<size_t>(section) * 16;
  return {ReadU64(bytes, entry), ReadU64(bytes, entry + 8)};
}

TEST(IndexIoCompatTest, MappedDecodeStaysInsideTheTermsBytes) {
  // A CRC-valid v5 file whose packed columns lie: in the last block of a
  // long list, every doc gap or every position byte length is raised to
  // its column's maximum and the payload CRC restamped. The mapped load
  // reads payloads only when a query decodes them, so it accepts the
  // file; the decode must still keep every doc id at or below the block
  // header's last doc and every position start inside the term's bytes,
  // and a phrase query over the list must run.
  const InvertedIndex built = BuildPruneIndex();
  const std::string path = TempPath("v5forge.idx");
  ASSERT_TRUE(SaveIndex(built, path).ok());
  const std::string bytes = ReadFile(path);
  const auto [meta_at, meta_len] = V5Section(bytes, FmtV5Section::kTermMeta);
  const auto [header_at, header_len] =
      V5Section(bytes, FmtV5Section::kBlockHeaders);
  const auto [payload_at, payload_len] =
      V5Section(bytes, FmtV5Section::kPayload);

  // The longest list whose last block spans several docs with non-empty
  // doc-gap and position-length columns.
  TermId term = kInvalidTerm;
  TermMetaV5 meta{};
  BlockHeaderV5 header{};
  size_t last = 0;
  size_t n = 0;
  for (TermId t = 0; t < built.term_count(); ++t) {
    TermMetaV5 m;
    std::memcpy(&m, bytes.data() + meta_at + t * sizeof(m), sizeof(m));
    const size_t blocks = built.postings(t).block_count();
    BlockHeaderV5 h;
    std::memcpy(&h,
                bytes.data() + header_at +
                    (m.block_begin + blocks - 1) * sizeof(h),
                sizeof(h));
    const size_t last_n = m.doc_count - (blocks - 1) * kFmtV5BlockSize;
    if (blocks >= 2 && last_n >= 8 && h.doc_bits > 0 && h.off_bits > 0 &&
        (term == kInvalidTerm || m.doc_count > meta.doc_count)) {
      term = t;
      meta = m;
      header = h;
      last = blocks - 1;
      n = last_n;
    }
  }
  ASSERT_NE(term, kInvalidTerm);
  const size_t docs_at =
      payload_at + meta.payload_begin + header.payload_offset;
  const size_t tfs_at = docs_at + common::PackedBytes(n, header.doc_bits);
  const size_t lens_at = tfs_at + common::PackedBytes(n, header.tf_bits);
  const struct {
    const char* name;
    size_t at;
    size_t length;
  } columns[] = {
      {"doc gaps", docs_at, common::PackedBytes(n, header.doc_bits)},
      {"position byte lengths", lens_at,
       common::PackedBytes(n, header.off_bits)},
  };

  const std::string text = built.TermText(term);
  const std::string forged_path = TempPath("v5forge_forged.idx");
  for (const auto& column : columns) {
    SCOPED_TRACE(std::string(column.name) + " of term " + text);
    std::string forged = bytes;
    std::memset(forged.data() + column.at, 0xFF, column.length);
    const uint32_t crc =
        common::Crc32c(forged.data() + payload_at, payload_len);
    std::memcpy(forged.data() + payload_at + payload_len, &crc, sizeof(crc));
    WriteFile(forged_path, forged);
    auto eager = LoadIndex(forged_path);
    EXPECT_FALSE(eager.ok()) << "the eager decode checks the columns";
    auto mapped = LoadIndexMapped(forged_path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();

    const PostingList& list = mapped->postings(term);
    const PostingBlock block = list.Block(last, BlockKind::kFull);
    ASSERT_EQ(block.docs.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_LE(block.docs[i], header.last_doc) << "posting " << i;
    }
    EXPECT_EQ(block.off_starts.front(), header.offsets_base);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_LE(block.off_starts[i], block.off_starts[i + 1]);
    }
    EXPECT_LE(block.off_starts.back(), list.position_bytes().size());

    const core::Engine engine(&*mapped);
    core::SearchOptions options;
    for (const size_t k : {size_t{0}, size_t{10}}) {
      options.top_k = k;
      auto result = engine.Search("\"" + text + " " + text + "\"",
                                  "AnySum", options);
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }
  std::remove(forged_path.c_str());
  std::remove(path.c_str());
}

// `bytes`, a saved v5 file, with column `column` (0 doc gaps, 1 tf - 1,
// 2 position byte lengths) of block `block` of term `term` repacked at 32
// bits after `forge` rewrites its values. Later blocks and terms move by
// the bytes the column grew, and every section and the table are laid
// out and checksummed again, so the file passes every CRC.
std::string WidenV5Column(
    const std::string& bytes, TermId term, size_t block, size_t column,
    const std::function<void(std::vector<uint32_t>*)>& forge) {
  std::vector<std::string> sections;
  for (uint32_t s = 0; s < kFmtV5SectionCount; ++s) {
    const auto [at, length] = V5Section(bytes, static_cast<FmtV5Section>(s));
    sections.push_back(bytes.substr(at, length));
  }
  std::string& metas =
      sections[static_cast<size_t>(FmtV5Section::kTermMeta)];
  std::string& headers =
      sections[static_cast<size_t>(FmtV5Section::kBlockHeaders)];
  std::string& payload =
      sections[static_cast<size_t>(FmtV5Section::kPayload)];
  const auto meta_at = [&](size_t t) {
    return reinterpret_cast<TermMetaV5*>(metas.data()) + t;
  };
  const auto header_at = [&](size_t b) {
    return reinterpret_cast<BlockHeaderV5*>(headers.data()) +
           meta_at(term)->block_begin + b;
  };
  const TermMetaV5 meta = *meta_at(term);
  BlockHeaderV5* h = header_at(block);
  const size_t n = std::min<size_t>(kFmtV5BlockSize,
                                    meta.doc_count - block * kFmtV5BlockSize);
  uint8_t* bits[3] = {&h->doc_bits, &h->tf_bits, &h->off_bits};
  size_t at = meta.payload_begin + h->payload_offset;
  for (size_t c = 0; c < column; ++c) at += common::PackedBytes(n, *bits[c]);
  const size_t old_length = common::PackedBytes(n, *bits[column]);
  std::vector<uint32_t> values(n);
  common::UnpackInts(reinterpret_cast<const uint8_t*>(payload.data()) + at,
                     n, *bits[column], values.data());
  forge(&values);
  std::string widened(common::PackedBytes(n, 32), '\0');
  common::PackInts(values.data(), n, 32,
                   reinterpret_cast<uint8_t*>(widened.data()));
  payload.replace(at, old_length, widened);
  const size_t grown = widened.size() - old_length;
  *bits[column] = 32;
  const size_t blocks = (meta.doc_count + kFmtV5BlockSize - 1) /
                        kFmtV5BlockSize;
  for (size_t b = block + 1; b < blocks; ++b) {
    header_at(b)->payload_offset += grown;
  }
  for (size_t t = term + 1; t < metas.size() / sizeof(TermMetaV5); ++t) {
    meta_at(t)->payload_begin += grown;
  }

  // The canonical layout: prologue, table, then each section 8-aligned
  // and followed by its CRC32C.
  std::string table(4 + kFmtV5SectionCount * 16, '\0');
  const uint32_t count = kFmtV5SectionCount;
  std::memcpy(table.data(), &count, 4);
  std::string body;
  uint64_t offset = 8 + table.size() + 4;
  for (uint32_t s = 0; s < kFmtV5SectionCount; ++s) {
    body.resize(body.size() + (8 - offset % 8) % 8, '\0');
    offset += (8 - offset % 8) % 8;
    const uint64_t length = sections[s].size();
    std::memcpy(table.data() + 4 + s * 16, &offset, 8);
    std::memcpy(table.data() + 4 + s * 16 + 8, &length, 8);
    const uint32_t crc = common::Crc32c(sections[s].data(), length);
    body += sections[s];
    body.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    offset += length + sizeof(crc);
  }
  const uint32_t table_crc = common::Crc32c(table.data(), table.size());
  table.append(reinterpret_cast<const char*>(&table_crc), sizeof(table_crc));
  return bytes.substr(0, 8) + table + body;
}

TEST(IndexIoCompatTest, EagerDecodeRejectsWrappedGapsAndZeroTf) {
  // Two CRC-valid forgeries that only the eager decode's arithmetic can
  // catch: the first block of the longest list gets its doc-gap or its
  // tf column widened to 32 bits. Raising two gaps by 2^31 each wraps
  // their u32 sum back onto the header's last_doc, so only a 64-bit sum
  // sees ids past the collection; a stored tf - 1 of 2^32 - 1 wraps to tf
  // 0. The unforged widening loads as built, so the rows fail for the
  // values alone.
  const InvertedIndex built = BuildPruneIndex();
  const std::string path = TempPath("v5widen.idx");
  ASSERT_TRUE(SaveIndex(built, path).ok());
  const std::string bytes = ReadFile(path);
  TermId term = 0;
  for (TermId t = 1; t < built.term_count(); ++t) {
    if (built.DocFreq(t) > built.DocFreq(term)) term = t;
  }
  ASSERT_GE(built.DocFreq(term), kFmtV5BlockSize);

  const std::string widened_path = TempPath("v5widen_forged.idx");
  for (const size_t column : {size_t{0}, size_t{1}}) {
    WriteFile(widened_path, WidenV5Column(bytes, term, 0, column,
                                          [](std::vector<uint32_t>*) {}));
    auto control = LoadIndex(widened_path);
    ASSERT_TRUE(control.ok()) << "column " << column << ": "
                              << control.status();
    ExpectSameIndex(*control, built);
  }

  const struct {
    const char* name;
    size_t column;
    std::function<void(std::vector<uint32_t>*)> forge;
    const char* message;
  } rows[] = {
      {"doc gaps wrapping onto last_doc", 0,
       [](std::vector<uint32_t>* gaps) {
         (*gaps)[0] += uint32_t{1} << 31;
         (*gaps)[1] += uint32_t{1} << 31;
       },
       "block payload disagrees with its header last_doc"},
      {"stored tf of 2^32 - 1", 1,
       [](std::vector<uint32_t>* tfs) { (*tfs)[0] = UINT32_MAX; },
       "zero term frequency"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    WriteFile(widened_path,
              WidenV5Column(bytes, term, 0, row.column, row.forge));
    auto eager = LoadIndex(widened_path);
    ASSERT_FALSE(eager.ok()) << "the forged column loaded";
    EXPECT_EQ(eager.status().code(), StatusCode::kCorruption);
    EXPECT_NE(eager.status().ToString().find(row.message), std::string::npos)
        << eager.status();
  }
  std::remove(widened_path.c_str());
  std::remove(path.c_str());
}

// Every term's columns start where the previous term's end: one
// allocation per column, the layout built, converted and eager-loaded
// indexes share. Frontier runs are not compared, since an eager load
// keeps the file's point count before each.
void ExpectContiguousColumns(const InvertedIndex& index) {
  size_t apart = 0;
  for (TermId t = 1; t < index.term_count(); ++t) {
    const PostingList& prev = index.postings(t - 1);
    const PostingList& list = index.postings(t);
    apart += list.docs().data() != prev.docs().data() + prev.docs().size();
    apart += list.tfs().data() != prev.tfs().data() + prev.tfs().size();
    apart += list.offset_starts().data() !=
             prev.offset_starts().data() + prev.offset_starts().size();
    apart += list.position_bytes().data() !=
             prev.position_bytes().data() + prev.position_bytes().size();
  }
  EXPECT_EQ(apart, 0u) << "columns not continued by the next term";
}

TEST(IndexBuilderTest, BuiltColumnsMatchEagerReload) {
  // A built index and a converted v4 fixture hold the same columns as
  // the eager v5 reload of their saved files, term for term.
  const InvertedIndex built = testutil::SeededCorpusIndex(2000, 17);
  auto converted = LoadIndex(FixturePath("small60_v4.idx"));
  ASSERT_TRUE(converted.ok()) << converted.status();
  const std::pair<const char*, const InvertedIndex*> sources[] = {
      {"built", &built}, {"converted v4", &*converted}};
  const std::string path = TempPath("layout.idx");
  for (const auto& [name, source] : sources) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(SaveIndex(*source, path).ok());
    auto reloaded = LoadIndex(path);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    ExpectSameIndex(*source, *reloaded);
    ExpectContiguousColumns(*source);
    ExpectContiguousColumns(*reloaded);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graft::index
