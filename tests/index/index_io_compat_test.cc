// v3 <-> v4 <-> v5 format compatibility.
//
// v4 added per-term block-max frontier arrays (the Pareto frontier of
// each posting block's (tf, document length) pairs) inside the per-term
// checksummed records. v5 replaces the materialized posting arrays with
// delta-encoded bit-packed blocks in an mmap-able sectioned layout
// (docs/index-format.md); compression must be bit-transparent — every
// decoded value identical to the v4 arrays — or GRAFT's score-consistency
// guarantee breaks. The contracts under test:
//   * a v4 round trip preserves the block-max metadata bit-for-bit;
//   * a v3 file (written by SaveIndexV3) still loads — with
//     has_block_max() == false, so block-max pruning gates itself off and
//     EXPLAIN reports "blocked: no block-max metadata";
//   * search results are bit-identical across a v3-loaded and a v4-loaded
//     index — pruning only changes which documents get scored;
//   * single-byte flips inside the new block-max sections are caught by
//     the per-term CRC (the new arrays are NOT outside checksum coverage).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "exec/maxscore_topk.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "index/posting_list.h"
#include "mcalc/parser.h"
#include "sa/scoring_scheme.h"
#include "text/corpus.h"

namespace graft::index {
namespace {

// PID-unique: ctest runs each test as its own process against the same
// TempDir — shared names would race.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/graft_" + std::to_string(::getpid()) +
         "_" + name;
}

InvertedIndex BuildSmallIndex() {
  text::CorpusConfig config = text::WikipediaLikeConfig(60, /*seed=*/7);
  IndexBuilder builder;
  text::CorpusGenerator generator(config);
  generator.Generate(
      [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
        builder.AddDocument(tokens);
      });
  return builder.Build();
}

// Large enough that common terms span many 128-doc blocks and top-10
// pruning reliably lands whole-block skips (8000 docs is the floor CI
// uses for the pruning bench's same assertion; at 60 docs every term is
// a single block and nothing can be skipped).
InvertedIndex BuildPruneIndex() {
  text::CorpusConfig config = text::WikipediaLikeConfig(8000, /*seed=*/13);
  IndexBuilder builder;
  text::CorpusGenerator generator(config);
  generator.Generate(
      [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
        builder.AddDocument(tokens);
      });
  return builder.Build();
}

// A few documents only: small enough that the v5 bit-flip fuzz below can
// afford to flip EVERY byte of the file.
InvertedIndex BuildTinyIndex() {
  text::CorpusConfig config = text::WikipediaLikeConfig(8, /*seed=*/21);
  IndexBuilder builder;
  text::CorpusGenerator generator(config);
  generator.Generate(
      [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
        builder.AddDocument(tokens);
      });
  return builder.Build();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(IndexIoCompatTest, V4RoundTripPreservesBlockMax) {
  const InvertedIndex built = BuildSmallIndex();
  ASSERT_TRUE(built.has_block_max());
  const std::string path = TempPath("v4.idx");
  ASSERT_TRUE(SaveIndex(built, path).ok());
  EXPECT_EQ(ReadFile(path)[7], '4');

  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->has_block_max());
  ASSERT_EQ(loaded->term_count(), built.term_count());
  for (TermId t = 0; t < built.term_count(); ++t) {
    const PostingList& want = built.postings(t);
    const PostingList& got = loaded->postings(t);
    ASSERT_EQ(got.block_count(), want.block_count()) << "term " << t;
    EXPECT_EQ(got.raw_frontier_start(), want.raw_frontier_start())
        << "term " << t;
    EXPECT_EQ(got.raw_frontier_tf(), want.raw_frontier_tf()) << "term " << t;
    EXPECT_EQ(got.raw_frontier_doc_length(), want.raw_frontier_doc_length())
        << "term " << t;
  }
}

TEST(IndexIoCompatTest, V3LoadsWithPruningAutoDisabled) {
  const InvertedIndex built = BuildSmallIndex();
  const std::string path = TempPath("v3.idx");
  ASSERT_TRUE(SaveIndexV3(built, path).ok());
  EXPECT_EQ(ReadFile(path)[7], '3');

  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->has_block_max());
  ASSERT_EQ(loaded->term_count(), built.term_count());
  for (TermId t = 0; t < built.term_count(); ++t) {
    EXPECT_EQ(loaded->postings(t).block_count(), 0u) << "term " << t;
    EXPECT_EQ(loaded->postings(t).raw_docs(), built.postings(t).raw_docs())
        << "term " << t;
    EXPECT_EQ(loaded->postings(t).raw_tfs(), built.postings(t).raw_tfs())
        << "term " << t;
  }

  // The pruning gate stands down with the metadata verdict...
  auto query = mcalc::ParseQuery("free software");
  ASSERT_TRUE(query.ok()) << query.status();
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("AnySum");
  ASSERT_NE(scheme, nullptr);
  EXPECT_EQ(exec::MaxScoreTopK::GateVerdict(*query, *scheme, *loaded,
                                            /*overlay=*/nullptr),
            "blocked: no block-max metadata");

  // ...top-k still works (threshold algorithm), never reports pruning, and
  // the rewrite table carries the blocking verdict.
  core::Engine engine(&*loaded);
  core::SearchOptions options;
  options.top_k = 5;
  auto result = engine.SearchQuery(*query, *scheme, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->used_rank_processing);
  EXPECT_FALSE(result->used_block_max_pruning);
  EXPECT_EQ(result->exec_stats.topk_blocks_skipped, 0u);
  EXPECT_EQ(result->exec_stats.topk_ceiling_probes, 0u);
  bool verdict_row = false;
  for (const core::RewriteAttempt& attempt : result->rewrite_attempts) {
    if (attempt.opt == core::Optimization::kBlockMaxPruning) {
      EXPECT_FALSE(attempt.fired);
      EXPECT_NE(attempt.verdict.find("no block-max metadata"),
                std::string::npos)
          << attempt.verdict;
      verdict_row = true;
    }
  }
  EXPECT_TRUE(verdict_row);

  // EXPLAIN's top-k strategy line reports it too.
  auto explain = engine.Explain("free software", "AnySum", options);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(
      explain->find("block-max prune blocked: no block-max metadata"),
      std::string::npos)
      << *explain;
}

TEST(IndexIoCompatTest, V3AndV4ResultsBitIdentical) {
  const InvertedIndex built = BuildSmallIndex();
  const std::string v3_path = TempPath("v3_results.idx");
  const std::string v4_path = TempPath("v4_results.idx");
  ASSERT_TRUE(SaveIndexV3(built, v3_path).ok());
  ASSERT_TRUE(SaveIndex(built, v4_path).ok());
  auto v3 = LoadIndex(v3_path);
  auto v4 = LoadIndex(v4_path);
  ASSERT_TRUE(v3.ok()) << v3.status();
  ASSERT_TRUE(v4.ok()) << v4.status();

  core::Engine unpruned_engine(&*v3);
  core::Engine pruned_engine(&*v4);
  core::SearchOptions options;
  options.top_k = 10;
  for (const char* query : {"free software", "free | software | windows"}) {
    for (const char* scheme : {"AnySum", "Lucene", "MeanSum"}) {
      auto a = unpruned_engine.Search(query, scheme, options);
      auto b = pruned_engine.Search(query, scheme, options);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_FALSE(a->used_block_max_pruning);
      ASSERT_EQ(a->results.size(), b->results.size())
          << query << " / " << scheme;
      for (size_t i = 0; i < a->results.size(); ++i) {
        EXPECT_EQ(a->results[i].score, b->results[i].score)
            << query << " / " << scheme << " rank " << i
            << " (bit-identical required)";
      }
    }
  }
}

TEST(IndexIoCompatTest, BlockMaxSectionBitFlipsRejected) {
  // Walk the v4 layout to the first term's block-max frontier arrays and
  // flip bytes inside them: the arrays live INSIDE the per-term
  // checksummed record, so every flip must come back as kCorruption.
  const InvertedIndex built = BuildSmallIndex();
  const std::string path = TempPath("v4flip.idx");
  ASSERT_TRUE(SaveIndex(built, path).ok());
  std::string bytes = ReadFile(path);

  const auto read_u64 = [&](size_t at) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  size_t off = 8;                                // magic + version byte
  off += 8 + 8;                                  // doc_count, total_words
  off += 8 + read_u64(off) * sizeof(uint32_t);   // doc_lengths
  off += 4;                                      // header section CRC
  off += 8 + 4;                                  // term_count + CRC
  // First term record: text, then docs/tfs/offset_starts/encoded_offsets.
  uint32_t text_len = 0;
  std::memcpy(&text_len, bytes.data() + off, sizeof(text_len));
  ASSERT_EQ(std::string(bytes.data() + off + 4, text_len),
            built.TermText(0));
  off += 4 + text_len;
  for (const size_t elem : {sizeof(DocId), sizeof(uint32_t),
                            sizeof(uint64_t), sizeof(uint8_t)}) {
    off += 8 + read_u64(off) * elem;
  }
  // `off` is now the u64 length prefix of frontier_start (block_count + 1
  // delimiters), followed by the length-prefixed frontier_tf and
  // frontier_doc_length point arrays.
  const uint64_t delimiters = read_u64(off);
  ASSERT_EQ(delimiters, built.postings(0).block_count() + 1);
  const size_t start_entry = off + 8;               // first delimiter
  const size_t tf_prefix = off + 8 + delimiters * 4;
  const uint64_t points = read_u64(tf_prefix);
  ASSERT_EQ(points, built.postings(0).raw_frontier_tf().size());
  ASSERT_GE(points, 1u);
  const size_t tf_entry = tf_prefix + 8;            // first frontier tf
  const size_t len_entry = tf_prefix + 8 + points * 4 + 8;  // first length
  const std::string corrupt_path = TempPath("v4flip_corrupt.idx");
  for (const size_t target : {off, start_entry, tf_entry, len_entry}) {
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

// ---------------------------------------------------------------------------
// v5: compressed, mmap-able postings.
// ---------------------------------------------------------------------------

TEST(IndexIoCompatTest, V5EagerRoundTripBitIdentical) {
  // Save v5, load eagerly (plain LoadIndex): every materialized array must
  // come back bit-identical to the source index — compression is lossless
  // by construction, and any deviation is a score-consistency bug.
  const InvertedIndex built = BuildSmallIndex();
  const std::string path = TempPath("v5.idx");
  ASSERT_TRUE(SaveIndexV5(built, path).ok());
  EXPECT_EQ(ReadFile(path)[7], '5');

  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->is_packed());  // eager load materializes
  EXPECT_TRUE(loaded->has_block_max());
  EXPECT_EQ(loaded->doc_count(), built.doc_count());
  EXPECT_EQ(loaded->total_words(), built.total_words());
  ASSERT_EQ(loaded->term_count(), built.term_count());
  for (TermId t = 0; t < built.term_count(); ++t) {
    SCOPED_TRACE("term " + std::to_string(t));
    const PostingList& want = built.postings(t);
    const PostingList& got = loaded->postings(t);
    EXPECT_EQ(got.raw_docs(), want.raw_docs());
    EXPECT_EQ(got.raw_tfs(), want.raw_tfs());
    EXPECT_EQ(got.raw_offset_starts(), want.raw_offset_starts());
    EXPECT_EQ(got.raw_encoded_offsets(), want.raw_encoded_offsets());
    EXPECT_EQ(got.collection_frequency(), want.collection_frequency());
    EXPECT_EQ(got.raw_frontier_start(), want.raw_frontier_start());
    EXPECT_EQ(got.raw_frontier_tf(), want.raw_frontier_tf());
    EXPECT_EQ(got.raw_frontier_doc_length(), want.raw_frontier_doc_length());
  }
}

TEST(IndexIoCompatTest, V5CompressesRelativeToV4) {
  const InvertedIndex built = BuildSmallIndex();
  const std::string v4_path = TempPath("v5cmp_v4.idx");
  const std::string v5_path = TempPath("v5cmp_v5.idx");
  ASSERT_TRUE(SaveIndex(built, v4_path).ok());
  ASSERT_TRUE(SaveIndexV5(built, v5_path).ok());
  EXPECT_LT(ReadFile(v5_path).size(), ReadFile(v4_path).size());
}

TEST(IndexIoCompatTest, V5MappedLoadDecodesIdentically) {
  // The packed (mmap) load path: no arrays are materialized; every
  // accessor decodes through the block cache. Compare each decoded value
  // against the source index, posting by posting.
  const InvertedIndex built = BuildSmallIndex();
  const std::string path = TempPath("v5map.idx");
  ASSERT_TRUE(SaveIndexV5(built, path).ok());

  auto mapped = LoadIndexMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->is_packed());
  EXPECT_TRUE(mapped->has_block_max());
  EXPECT_NE(mapped->block_cache(), nullptr);
  EXPECT_NE(mapped->cache_generation(), 0u);
  ASSERT_EQ(mapped->term_count(), built.term_count());
  ASSERT_EQ(mapped->doc_count(), built.doc_count());
  for (DocId d = 0; d < built.doc_count(); ++d) {
    ASSERT_EQ(mapped->doc_length(d), built.doc_length(d)) << "doc " << d;
  }
  std::vector<Offset> want_offsets;
  std::vector<Offset> got_offsets;
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
      want.DecodeOffsets(p, &want_offsets);
      got.DecodeOffsets(p, &got_offsets);
      ASSERT_EQ(got_offsets, want_offsets) << "posting " << p;
    }
    // GallopTo agrees at every reachable target (exact and between-docs).
    for (size_t p = 0; p < want.doc_count(); ++p) {
      const DocId target = want.doc_at(p);
      ASSERT_EQ(got.GallopTo(0, target), want.GallopTo(0, target));
      ASSERT_EQ(got.GallopTo(0, target + 1), want.GallopTo(0, target + 1));
    }
    ASSERT_EQ(got.GallopTo(0, static_cast<DocId>(built.doc_count())),
              want.GallopTo(0, static_cast<DocId>(built.doc_count())));
  }
}

TEST(IndexIoCompatTest, V5SearchBitIdenticalAcrossLoadModes) {
  // Same queries, same schemes, three load modes of the same logical
  // index: v4 (materialized), v5 eager, v5 mapped. Scores must agree to
  // the last bit.
  const InvertedIndex built = BuildSmallIndex();
  const std::string v4_path = TempPath("v5modes_v4.idx");
  const std::string v5_path = TempPath("v5modes_v5.idx");
  ASSERT_TRUE(SaveIndex(built, v4_path).ok());
  ASSERT_TRUE(SaveIndexV5(built, v5_path).ok());
  auto v4 = LoadIndex(v4_path);
  auto v5_eager = LoadIndex(v5_path);
  auto v5_mapped = LoadIndexMapped(v5_path);
  ASSERT_TRUE(v4.ok()) << v4.status();
  ASSERT_TRUE(v5_eager.ok()) << v5_eager.status();
  ASSERT_TRUE(v5_mapped.ok()) << v5_mapped.status();

  core::Engine v4_engine(&*v4);
  core::Engine eager_engine(&*v5_eager);
  core::Engine mapped_engine(&*v5_mapped);
  core::SearchOptions options;
  options.top_k = 10;
  for (const char* query :
       {"free software", "free | software | windows",
        "(free software)WINDOW[20] system"}) {
    for (const char* scheme : {"AnySum", "Lucene", "MeanSum"}) {
      SCOPED_TRACE(std::string(query) + " / " + scheme);
      auto a = v4_engine.Search(query, scheme, options);
      auto b = eager_engine.Search(query, scheme, options);
      auto c = mapped_engine.Search(query, scheme, options);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_TRUE(c.ok()) << c.status();
      ASSERT_EQ(b->results.size(), a->results.size());
      ASSERT_EQ(c->results.size(), a->results.size());
      for (size_t i = 0; i < a->results.size(); ++i) {
        EXPECT_EQ(b->results[i].doc, a->results[i].doc) << "rank " << i;
        EXPECT_EQ(b->results[i].score, a->results[i].score) << "rank " << i;
        EXPECT_EQ(c->results[i].doc, a->results[i].doc) << "rank " << i;
        EXPECT_EQ(c->results[i].score, a->results[i].score) << "rank " << i;
      }
    }
  }
}

TEST(IndexIoCompatTest, V5MaxScoreSkipsBlocksWithoutPayloadDecodes) {
  // The point of the two-granularity cache: block-max pruning on a packed
  // index must align on headers and doc columns only — a SKIPPED block
  // never pays a kFull payload decode. Compare payload decodes between a
  // pruned top-k run and an exhaustive full-ranking run, each on a fresh
  // mapped load (private cache, nothing warm).
  const InvertedIndex built = BuildPruneIndex();
  const std::string path = TempPath("v5prune.idx");
  ASSERT_TRUE(SaveIndexV5(built, path).ok());

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
  // Cache traffic was harvested into the result's ExecStats...
  EXPECT_GT(pruned.exec_stats.block_cache_misses, 0u);
  EXPECT_GT(full.exec_stats.packed_payload_decodes, 0u);
  // ...and the pruned run paid fewer payload decodes than the exhaustive
  // one — skipped blocks stayed packed.
  EXPECT_LT(pruned.exec_stats.packed_payload_decodes,
            full.exec_stats.packed_payload_decodes);
  // The harvest holds for the other top-k operator too: a monolithic query
  // runs inline on the calling thread, whichever operator the table picks.
  const core::SearchResult unpruned = run(true, false);
  EXPECT_EQ(unpruned.topk_operator, "hrjn");
  EXPECT_GT(unpruned.exec_stats.block_cache_misses, 0u);
  EXPECT_GT(unpruned.exec_stats.topk_sorted_accesses, 0u);
  // Pruning changed the work, not the answer.
  ASSERT_EQ(pruned.results.size(), full.results.size());
  for (size_t i = 0; i < pruned.results.size(); ++i) {
    EXPECT_EQ(pruned.results[i].doc, full.results[i].doc);
    EXPECT_EQ(pruned.results[i].score, full.results[i].score);
  }
}

TEST(IndexIoCompatTest, V5EveryByteFlipRejected) {
  // The v5 layout is byte-accountable: prologue, section table, sections,
  // and alignment padding all sit under a CRC or an explicit zero check.
  // Flipping ANY single byte of the file must fail the load — on both the
  // eager and the mapped path.
  const InvertedIndex built = BuildTinyIndex();
  const std::string path = TempPath("v5fuzz.idx");
  ASSERT_TRUE(SaveIndexV5(built, path).ok());
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 128u);
  const std::string corrupt_path = TempPath("v5fuzz_corrupt.idx");

  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    WriteFile(corrupt_path, corrupt);
    auto eager = LoadIndex(corrupt_path);
    ASSERT_FALSE(eager.ok()) << "eager load survived flip at byte " << at;
    auto mapped = LoadIndexMapped(corrupt_path);
    ASSERT_FALSE(mapped.ok()) << "mapped load survived flip at byte " << at;
    if (at >= 8) {
      // Past the prologue the error is always a checked class. (A prologue
      // flip may route to the legacy loaders, whose own sniffing rejects
      // the file with their own codes.)
      EXPECT_TRUE(eager.status().code() == StatusCode::kCorruption ||
                  eager.status().code() == StatusCode::kDataLoss)
          << "byte " << at << ": " << eager.status();
    }
  }
}

TEST(IndexIoCompatTest, V5TruncationRejectedAsDataLoss) {
  const InvertedIndex built = BuildTinyIndex();
  const std::string path = TempPath("v5trunc.idx");
  ASSERT_TRUE(SaveIndexV5(built, path).ok());
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
  const InvertedIndex built = BuildTinyIndex();
  const std::string path = TempPath("v5resave.idx");
  ASSERT_TRUE(SaveIndexV5(built, path).ok());
  auto mapped = LoadIndexMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const std::string out = TempPath("v5resave_out.idx");
  EXPECT_EQ(SaveIndex(*mapped, out).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(SaveIndexV5(*mapped, out).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace graft::index
