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
// which body holds the list:
//
//   * in-heap lists (IndexBuilder output, v3/v4 and eager-v5 loads) answer
//     with slices of their own docs/tfs/offset-start arrays;
//   * packed lists (v5 mmap loads) answer with one DecodedBlock fetched
//     through the generation-keyed BlockCache (index/block_cache.h), and
//     read last doc ids from the block headers. A cursor fetches each
//     block at doc-id granularity and upgrades it to the full payload only
//     when tf() or offsets() is first read there, so block-max pruning can
//     skip a block without unpacking its scores.
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

// Zero-copy backing views of one term's packed (v5) posting data. The
// pointed-to bytes belong to the owning index's MmapRegion; the cache
// pointer is non-owning too (the index keeps both alive).
struct PackedPostings {
  const BlockHeaderV5* headers = nullptr;  // ceil(doc_count / 128) entries
  const uint8_t* payload = nullptr;        // term's packed-column base
  const uint8_t* offsets = nullptr;        // term's position-varint base
  uint64_t offsets_length = 0;
  uint64_t doc_count = 0;
  uint64_t generation = 0;  // BlockCache key namespace for this load
  uint32_t term = 0;
  BlockCache* cache = nullptr;  // null <=> the list is not packed
};

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

  PostingList() = default;

  // Appends one document's occurrences. Documents must be appended in
  // strictly increasing doc order; offsets must be strictly increasing.
  void AddDocument(DocId doc, std::span<const Offset> offsets);

  size_t doc_count() const { return doc_count_; }
  // Total occurrences across all documents (collection frequency).
  uint64_t collection_frequency() const { return total_positions_; }
  // ceil(doc_count / kBlockSize).
  size_t block_count() const {
    return (doc_count_ + kBlockSize - 1) / kBlockSize;
  }

  // Block `b`'s columns. An in-heap list always answers with every column;
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
  // block; copying the headers' last docs into every mapped list instead
  // costs a per-term allocation on each mapped load.
  DocId block_last_doc(size_t block) const {
    return is_packed()
               ? packed_.headers[block].last_doc
               : docs_[std::min(doc_count_, (block + 1) * kBlockSize) - 1];
  }

  // ---- Block-max metadata (score ceilings for dynamic pruning) ----
  // Computed by BuildBlockMax (needs per-doc lengths, so IndexBuilder and
  // the v3 loader drive it) or restored verbatim from a v4/v5 index file.
  // frontier_start gets block_count()+1 entries delimiting each block's
  // run of points in the parallel frontier_tf / frontier_doc_length
  // arrays; within a block, points are sorted tf-descending with strictly
  // decreasing lengths.
  void BuildBlockMax(std::span<const uint32_t> doc_lengths);
  void RestoreBlockMax(std::vector<uint32_t> frontier_start,
                       std::vector<uint32_t> frontier_tf,
                       std::vector<uint32_t> frontier_doc_length);
  // Frontier-point index range [begin, end) of `block`; always non-empty.
  size_t frontier_begin(size_t block) const { return frontier_start_[block]; }
  size_t frontier_end(size_t block) const {
    return frontier_start_[block + 1];
  }
  uint32_t frontier_tf(size_t point) const { return frontier_tf_[point]; }
  uint32_t frontier_doc_length(size_t point) const {
    return frontier_doc_length_[point];
  }

  // Serialization hooks used by index_io (in-heap lists only; a packed
  // list re-saves by round-tripping through an eager load).
  const std::vector<DocId>& raw_docs() const {
    assert(!is_packed());
    return docs_;
  }
  const std::vector<uint32_t>& raw_tfs() const {
    assert(!is_packed());
    return tfs_;
  }
  const std::vector<uint32_t>& raw_offset_starts() const {
    assert(!is_packed());
    return offset_start_;
  }
  const std::vector<uint8_t>& raw_encoded_offsets() const {
    assert(!is_packed());
    return encoded_offsets_;
  }
  const std::vector<uint32_t>& raw_frontier_start() const {
    return frontier_start_;
  }
  const std::vector<uint32_t>& raw_frontier_tf() const {
    return frontier_tf_;
  }
  const std::vector<uint32_t>& raw_frontier_doc_length() const {
    return frontier_doc_length_;
  }
  // `offset_starts` has docs.size()+1 entries; the caller has checked that
  // the position blob fits the u32 starts (4 GiB).
  void RestoreFrom(std::vector<DocId> docs, std::vector<uint32_t> tfs,
                   std::vector<uint32_t> offset_starts,
                   std::vector<uint8_t> encoded_offsets,
                   uint64_t total_positions);
  // Turns the list into a packed view (v5 mmap load). Mutators and raw
  // array hooks must not be called afterwards.
  void RestorePacked(const PackedPostings& packed,
                     uint64_t collection_frequency);

 private:
  // True when the list is a zero-copy view over a v5 mmap load.
  bool is_packed() const { return packed_.cache != nullptr; }
  // Bit-unpacks block `b` from the mapped payload bytes (cache miss path).
  void UnpackBlock(size_t b, BlockKind kind, DecodedBlock* out) const;

  PackedPostings packed_;
  size_t doc_count_ = 0;
  std::vector<DocId> docs_;
  std::vector<uint32_t> tfs_;
  // offset_start_[i] is the byte offset into encoded_offsets_ of doc i's
  // first varint; has doc_count()+1 entries once a document is added
  // (none in a packed list, so a mapped load allocates nothing for it).
  std::vector<uint32_t> offset_start_;
  std::vector<uint8_t> encoded_offsets_;
  uint64_t total_positions_ = 0;
  // Per-block (tf, doc length) Pareto frontiers, flattened: block b's
  // points occupy [frontier_start_[b], frontier_start_[b+1]) of the two
  // parallel point arrays. Empty until BuildBlockMax or RestoreBlockMax
  // runs; frontier_start_ has block_count()+1 entries when present.
  std::vector<uint32_t> frontier_start_;
  std::vector<uint32_t> frontier_tf_;
  std::vector<uint32_t> frontier_doc_length_;
};

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
