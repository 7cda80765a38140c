// Posting lists for the term-position index.
//
// Layout is columnar per term with *compressed positions* (the idiom of
// production engines such as Lucene):
//
//   * the document id array and the per-document occurrence counts (tf)
//     are raw arrays — directly addressable, cheap to scan and skip;
//   * the position lists are delta-encoded varints — compact, but reading
//     them costs a decode pass.
//
// This asymmetry gives the paper's two physical scan granularities:
//
//   * the term-POSITION scan (Atomic Match Factory A) walks docs and
//     decodes offsets;
//   * the term-DOCUMENT scan (Pre-Counting factory CA, Section 5.2.3)
//     walks only the docs/tf arrays and never touches (or decodes)
//     position bytes — "a much smaller term-document index".
//
// Document-level skipping (SkipTo) gallops over the per-block last doc ids
// and then inside one block; this is the skip-pointer / zig-zag-join
// primitive of Section 5.2.1.
//
// Every read goes through one PostingCursor, and every cursor reads one
// 128-posting block at a time through PostingList::Block. Block and
// block_last_doc (the per-block skip keys) are the only code that knows
// which body holds the list.
//
// A PostingList owns nothing: it is a view of pointers into arrays its
// InvertedIndex owns (inverted_index.h), so it is cheap to copy and its
// pointers survive moving the index. The index has two storage layouts,
// and a list one body for each:
//
//   * decoded lists (IndexBuilder output, eager v5 loads and v3/v4
//     conversions, all in one layout) answer with slices of the index's
//     docs / tfs / offset-start columns;
//   * packed lists (v5 mmap loads) view the mapped file and answer with
//     one DecodedBlock fetched through the generation-keyed BlockCache
//     (index/block_cache.h), and read last doc ids from the block
//     headers. A cursor fetches each block at doc-id granularity and
//     upgrades it to the full payload only when tf() or offsets() is
//     first read there, so block-max pruning can skip a block without
//     unpacking its scores.
//
// Both bodies view the term's position varints and its block-max
// frontiers the same way.
//
// A skip past the current block searches the block last doc ids and
// fetches only the block that holds the target. Decoded values are
// bit-identical across bodies (the differential fuzzer's v5 variant
// enforces this); only access cost differs.

#ifndef GRAFT_INDEX_POSTING_LIST_H_
#define GRAFT_INDEX_POSTING_LIST_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "index/block_cache.h"
#include "index/index_format.h"
#include "index/types.h"

namespace graft::index {

// A contiguous doc-id range [doc_lo, doc_hi): one segment of the index.
// The default range is the whole index (no real document has id
// kInvalidDoc). Scans bounded by a range visit exactly the postings whose
// doc ids fall inside it; the doc ids themselves stay global.
struct DocRange {
  DocId doc_lo = 0;
  DocId doc_hi = kInvalidDoc;

  bool operator==(const DocRange&) const = default;
};

// One term's decoded columns (PostingList's decoded body): docs and tfs
// hold doc_count entries, offset_starts doc_count + 1 byte offsets into
// the term's position varints at `offsets`, the last being their length.
struct DecodedPostings {
  const DocId* docs = nullptr;
  const uint32_t* tfs = nullptr;
  const uint32_t* offset_starts = nullptr;
  const uint8_t* offsets = nullptr;
};

// One term's packed (v5) posting bytes (PostingList's packed body). The
// bytes belong to the owning index's MmapRegion; the cache pointer is
// non-owning too (the index keeps both alive).
struct PackedPostings {
  const BlockHeaderV5* headers = nullptr;  // ceil(doc_count / 128) entries
  const uint8_t* payload = nullptr;        // term's packed-column base
  const uint8_t* offsets = nullptr;        // term's position-varint base
  uint64_t offsets_length = 0;
  uint64_t doc_count = 0;
  uint64_t generation = 0;  // BlockCache key namespace for this load
  uint32_t term = 0;
  BlockCache* cache = nullptr;
};

// One term's block-max frontiers, stored as one run of u32 words:
// block_count + 1 delimiters, then every point's tf, then every point's
// document length. Block b's points occupy [start[b], start[b + 1]) of
// the two point arrays; within a block, points are sorted tf-descending
// with strictly decreasing lengths.
struct Frontiers {
  const uint32_t* start = nullptr;
  const uint32_t* tf = nullptr;
  const uint32_t* doc_length = nullptr;

  // The view of the run that begins at `words`.
  static Frontiers At(const uint32_t* words, size_t block_count) {
    const uint32_t* tf = words + block_count + 1;
    return {words, tf, tf + words[block_count]};
  }
};

// Appends one term's frontier run (the Frontiers layout) to `out`.
// `doc_lengths` is indexed by doc id.
void AppendFrontiers(std::span<const DocId> docs,
                     std::span<const uint32_t> tfs,
                     std::span<const uint32_t> doc_lengths,
                     std::vector<uint32_t>* out);

// One block of one posting list, as columns (PostingList::Block). Posting
// i of the block has doc id docs[i], tf tfs[i], and its position varints
// start at offsets + off_starts[i].
struct PostingBlock {
  std::span<const DocId> docs;
  // Empty after a doc-id-only fetch (BlockKind::kDocs) of a packed block.
  std::span<const uint32_t> tfs;
  std::span<const uint32_t> off_starts;
  const uint8_t* offsets = nullptr;  // the term's position-varint base
  BlockCache::BlockPtr pin;          // packed: keeps the decoded block alive
};

class PostingList {
 public:
  // Postings are grouped into fixed-size blocks: the unit a cursor reads,
  // and the unit of block-max pruning metadata. Per block, the metadata is
  // the Pareto frontier of the block's (tf, document length) pairs
  // (dominance: higher tf AND shorter document). A bounded scheme's α is
  // monotone ↑tf / ↓length, so every document in the block is dominated by
  // some frontier point, and the frontier's best α is the block's EXACT
  // score ceiling — unlike the single (max tf, min length) point, which
  // pairs extremes that rarely co-occur in one document and yields a
  // ceiling too loose to ever skip a block.
  static constexpr size_t kBlockSize = 128;
  // Frontier points stored per block, at most. When a block's skyline is
  // larger, the tail collapses into one synthetic dominating point
  // (tail's max tf, block min length) — still a sound upper bound, just
  // not exact for the collapsed region.
  static constexpr size_t kMaxFrontierPoints = 8;

  // An empty list.
  PostingList() = default;
  // A decoded list of `doc_count` postings.
  PostingList(size_t doc_count, uint64_t collection_frequency,
              const DecodedPostings& decoded, const Frontiers& frontiers);
  // A packed list over a v5 mmap load.
  PostingList(const PackedPostings& packed, uint64_t collection_frequency,
              const Frontiers& frontiers);

  size_t doc_count() const { return doc_count_; }
  // Total occurrences across all documents (collection frequency).
  uint64_t collection_frequency() const { return total_positions_; }
  // ceil(doc_count / kBlockSize).
  size_t block_count() const {
    return (doc_count_ + kBlockSize - 1) / kBlockSize;
  }

  // Block `b`'s columns. A decoded list always answers with every column;
  // a packed list decodes (or finds in the cache) only the doc ids for
  // kDocs and everything for kFull.
  PostingBlock Block(size_t b, BlockKind kind) const;

  // Cold single-posting reads for tests; scans use PostingCursor.
  DocId doc_at(size_t i) const {
    return Block(i / kBlockSize, BlockKind::kDocs).docs[i % kBlockSize];
  }
  uint32_t tf_at(size_t i) const {
    return Block(i / kBlockSize, BlockKind::kFull).tfs[i % kBlockSize];
  }
  std::vector<Offset> OffsetsAt(size_t i) const;

  // Last (largest) document id in `block`: what a skip searches, and the
  // skip target when the block's ceiling cannot reach the heap threshold.
  // A packed list reads it from the block header, so it never decodes a
  // block to answer.
  DocId block_last_doc(size_t block) const {
    if (is_packed()) return headers_[block].last_doc;
    return docs_[std::min<size_t>(doc_count_, (block + 1) * kBlockSize) - 1];
  }

  // ---- Block-max metadata (score ceilings for dynamic pruning) ----
  // Built by AppendFrontiers (IndexBuilder and the v3 converter) or read
  // verbatim from a v4/v5 index file.
  // Frontier-point index range [begin, end) of `block`; always non-empty.
  size_t frontier_begin(size_t block) const { return frontiers_.start[block]; }
  size_t frontier_end(size_t block) const {
    return frontiers_.start[block + 1];
  }
  uint32_t frontier_tf(size_t point) const { return frontiers_.tf[point]; }
  uint32_t frontier_doc_length(size_t point) const {
    return frontiers_.doc_length[point];
  }

  // ---- The viewed arrays, for the index writer and tests ----
  // The decoded columns; a packed list has none.
  std::span<const DocId> docs() const {
    assert(!is_packed());
    return {docs_, doc_count_};
  }
  std::span<const uint32_t> tfs() const {
    assert(!is_packed());
    return {tfs_, doc_count_};
  }
  std::span<const uint32_t> offset_starts() const {
    assert(!is_packed());
    return {offset_starts_, doc_count_ + 1};
  }
  // The term's position varints.
  std::span<const uint8_t> position_bytes() const {
    return {offsets_, offsets_length_};
  }
  // The frontier arrays: block_count() + 1 delimiters, then the points.
  std::span<const uint32_t> frontier_starts() const {
    return {frontiers_.start, block_count() + 1};
  }
  std::span<const uint32_t> frontier_tfs() const {
    return {frontiers_.tf, frontier_points()};
  }
  std::span<const uint32_t> frontier_doc_lengths() const {
    return {frontiers_.doc_length, frontier_points()};
  }

 private:
  // True when the list is a zero-copy view over a v5 mmap load.
  bool is_packed() const { return cache_ != nullptr; }
  size_t frontier_points() const { return frontiers_.start[block_count()]; }
  // Bit-unpacks block `b` from the mapped payload bytes (cache miss path).
  void UnpackBlock(size_t b, BlockKind kind, DecodedBlock* out) const;

  // Both bodies.
  uint64_t doc_count_ = 0;
  uint64_t total_positions_ = 0;
  const uint8_t* offsets_ = nullptr;
  uint64_t offsets_length_ = 0;
  Frontiers frontiers_;
  // Decoded body.
  const DocId* docs_ = nullptr;
  const uint32_t* tfs_ = nullptr;
  const uint32_t* offset_starts_ = nullptr;
  // Packed body.
  const BlockHeaderV5* headers_ = nullptr;
  const uint8_t* payload_ = nullptr;
  BlockCache* cache_ = nullptr;  // null <=> the list is not packed
  uint64_t generation_ = 0;
  uint32_t term_ = 0;  // the cache key
};

// Half the size of the seven-vector list the view replaced (248 bytes):
// an index holds one per term.
static_assert(sizeof(PostingList) < 248);

// The one document-granular cursor over a posting list, for both scans:
// the A scan reads doc(), tf() and offsets(); the CA scan never calls
// offsets(), so it never touches position bytes. It holds the block it
// sits in and is bounded by a doc range: it starts at the range's first
// posting and reports AtEnd at the first posting >= doc_hi. offsets()
// decodes the current document's positions into an internal scratch
// buffer whose contents stay valid until the next offsets() call
// (Next/SkipTo do not touch it).
class PostingCursor {
 public:
  // An exhausted cursor over no list.
  PostingCursor() = default;
  explicit PostingCursor(const PostingList* list, DocRange range = {});

  bool AtEnd() const { return pos_ >= end_; }
  DocId doc() const { return view_.docs[pos_ - begin_]; }
  uint32_t tf() { return Full().tfs[pos_ - begin_]; }
  std::span<const Offset> offsets();

  // Posting index the cursor sits on (operators diff it across SkipTo to
  // count skip hits), and the blocks of that posting and of the range's
  // last one. last_block() needs a non-empty range.
  size_t position() const { return pos_; }
  size_t block() const { return pos_ / PostingList::kBlockSize; }
  size_t last_block() const { return (end_ - 1) / PostingList::kBlockSize; }

  void Next() {
    if (++pos_ == begin_ + view_.docs.size() && pos_ < end_) {
      Load(pos_ / PostingList::kBlockSize, BlockKind::kDocs);
    }
  }
  // Advances to the first posting with doc >= target. A target at or past
  // the range end lands on the end without a search. Otherwise the search
  // gallops over the block last doc ids when the target lies past the
  // current block, fetches the one block that holds it, and gallops
  // inside. When `probes` is non-null it is incremented once per doc-id
  // comparison (the per-query counter surfaced by EXPLAIN ANALYZE).
  void SkipTo(DocId target, uint64_t* probes = nullptr);

 private:
  void Load(size_t b, BlockKind kind);
  // The current block with its payload: a doc-id-only view is upgraded
  // to kFull on the first tf() or offsets() read inside it.
  const PostingBlock& Full() {
    if (view_.tfs.empty()) {
      Load(begin_ / PostingList::kBlockSize, BlockKind::kFull);
    }
    return view_;
  }

  const PostingList* list_ = nullptr;
  DocId doc_hi_ = kInvalidDoc;
  size_t pos_ = 0;
  size_t end_ = 0;
  size_t begin_ = 0;  // posting index of view_.docs[0]
  PostingBlock view_;
  std::vector<Offset> scratch_;
};

}  // namespace graft::index

#endif  // GRAFT_INDEX_POSTING_LIST_H_
