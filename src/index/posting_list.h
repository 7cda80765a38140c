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
// Document-level skipping (SkipTo) uses galloping search over the document
// array; this is the skip-pointer / zig-zag-join primitive of Section 5.2.1.
//
// Storage comes in TWO modes:
//
//   * materialized (the default): docs/tfs are in-heap arrays, positions
//     are an in-heap varint blob — what IndexBuilder produces and what v3/
//     v4/eager-v5 loads restore;
//   * packed (v5 mmap loads): nothing is materialized. The list holds
//     zero-copy pointers into the mapped index file (fixed-width block
//     headers, bit-packed 128-entry payload blocks, the position-varint
//     blob) and every accessor decodes blocks on demand through the
//     generation-keyed BlockCache (index/block_cache.h). Doc-id-only reads
//     (GallopTo, doc_at) fetch docs-granularity blocks; tf_at and
//     DecodeOffsets fetch full blocks — so block-max pruning can align on
//     block boundaries without ever unpacking the score payload of a
//     skipped block. Decoded values are bit-identical to the materialized
//     arrays (the differential fuzzer's v5 variant enforces this), only
//     access cost differs.

#ifndef GRAFT_INDEX_POSTING_LIST_H_
#define GRAFT_INDEX_POSTING_LIST_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "index/block_cache.h"
#include "index/index_format.h"
#include "index/types.h"
#include "index/varint.h"

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

class PostingList {
 public:
  // Postings are grouped into fixed-size blocks for block-max pruning
  // metadata: per block, the Pareto frontier of the block's (tf, document
  // length) pairs (dominance: higher tf AND shorter document). A bounded
  // scheme's α is monotone ↑tf / ↓length, so every document in the block
  // is dominated by some frontier point, and the frontier's best α is the
  // block's EXACT score ceiling — unlike the single (max tf, min length)
  // point, which pairs extremes that rarely co-occur in one document and
  // yields a ceiling too loose to ever skip a block.
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

  size_t doc_count() const {
    return is_packed() ? packed_.doc_count : docs_.size();
  }
  // Total occurrences across all documents (collection frequency).
  uint64_t collection_frequency() const { return total_positions_; }

  // True when the list is a zero-copy view over a v5 mmap load; accessors
  // then decode through the BlockCache instead of reading in-heap arrays.
  bool is_packed() const { return packed_.cache != nullptr; }

  // Whole-array spans exist only in materialized mode (baselines that want
  // them on a packed index must walk via doc_at/GallopTo instead).
  std::span<const DocId> docs() const {
    assert(!is_packed());
    return docs_;
  }
  std::span<const uint32_t> tfs() const {
    assert(!is_packed());
    return tfs_;
  }

  DocId doc_at(size_t i) const {
    return is_packed() ? PackedDocAt(i) : docs_[i];
  }
  uint32_t tf_at(size_t i) const {
    return is_packed() ? PackedTfAt(i) : tfs_[i];
  }

  // Decodes doc i's positions into `out` (cleared first). The decode cost
  // is the point: position access is not free.
  void DecodeOffsets(size_t i, std::vector<Offset>* out) const;
  std::vector<Offset> OffsetsAt(size_t i) const {
    std::vector<Offset> out;
    DecodeOffsets(i, &out);
    return out;
  }

  // Index of the first posting with doc >= target, starting the gallop from
  // `from`. Returns doc_count() if none. When `probes` is non-null, it is
  // incremented once per document-id comparison the search performed
  // (gallop doublings + binary-search halvings) — the per-query probe
  // counter surfaced by EXPLAIN ANALYZE.
  size_t GallopTo(size_t from, DocId target, uint64_t* probes = nullptr) const;

  // Posting-index range [first, last) of the documents inside `range`. The
  // full range answers without a search, so whole-index scans pay nothing.
  std::pair<size_t, size_t> Bounds(DocRange range) const {
    const size_t first = range.doc_lo == 0 ? 0 : GallopTo(0, range.doc_lo);
    const size_t last = range.doc_hi == kInvalidDoc
                            ? doc_count()
                            : GallopTo(first, range.doc_hi);
    return {first, last};
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
  // ceil(doc_count / kBlockSize); 0 when metadata is absent.
  size_t block_count() const {
    return frontier_start_.empty() ? 0 : frontier_start_.size() - 1;
  }
  // Frontier-point index range [begin, end) of `block`; always non-empty.
  size_t frontier_begin(size_t block) const { return frontier_start_[block]; }
  size_t frontier_end(size_t block) const {
    return frontier_start_[block + 1];
  }
  uint32_t frontier_tf(size_t point) const { return frontier_tf_[point]; }
  uint32_t frontier_doc_length(size_t point) const {
    return frontier_doc_length_[point];
  }
  // The first frontier point carries the block's max tf, the last its min
  // document length (the sort invariant above).
  uint32_t block_max_tf(size_t block) const {
    return frontier_tf_[frontier_start_[block]];
  }
  uint32_t block_min_doc_length(size_t block) const {
    return frontier_doc_length_[frontier_start_[block + 1] - 1];
  }
  // Posting-index range [begin, end) covered by `block`.
  size_t block_begin(size_t block) const { return block * kBlockSize; }
  size_t block_end(size_t block) const {
    return std::min(doc_count(), (block + 1) * kBlockSize);
  }
  // Last (largest) document id in `block` — the skip target when the
  // block's ceiling cannot reach the heap threshold. Packed lists answer
  // from the block header, so skipping a block never decodes it.
  DocId block_last_doc(size_t block) const {
    return is_packed() ? packed_.headers[block].last_doc
                       : docs_[block_end(block) - 1];
  }

  // Serialization hooks used by index_io (materialized lists only; a
  // packed list re-saves by round-tripping through an eager load).
  const std::vector<DocId>& raw_docs() const {
    assert(!is_packed());
    return docs_;
  }
  const std::vector<uint32_t>& raw_tfs() const {
    assert(!is_packed());
    return tfs_;
  }
  const std::vector<uint64_t>& raw_offset_starts() const {
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
  void RestoreFrom(std::vector<DocId> docs, std::vector<uint32_t> tfs,
                   std::vector<uint64_t> offset_starts,
                   std::vector<uint8_t> encoded_offsets,
                   uint64_t total_positions);
  // Turns the list into a packed view (v5 mmap load). Mutators and raw
  // array hooks must not be called afterwards.
  void RestorePacked(const PackedPostings& packed,
                     uint64_t collection_frequency);

 private:
  // Decodes block `b` at the requested granularity, through the cache.
  // The returned pointer stays valid until the list's next accessor call
  // on this thread (a thread-local memo pins it).
  const DecodedBlock* FetchBlock(size_t b, BlockKind kind) const;
  DocId PackedDocAt(size_t i) const;
  uint32_t PackedTfAt(size_t i) const;
  void PackedDecodeOffsets(size_t i, std::vector<Offset>* out) const;
  size_t PackedGallopTo(size_t from, DocId target, uint64_t* probes) const;
  // Bit-unpacks block `b` from the mapped payload bytes (cache miss path).
  void UnpackBlock(size_t b, BlockKind kind, DecodedBlock* out) const;

  PackedPostings packed_;
  std::vector<DocId> docs_;
  std::vector<uint32_t> tfs_;
  // offset_start_[i] is the byte offset into encoded_offsets_ of doc i's
  // first varint; has doc_count()+1 entries.
  std::vector<uint64_t> offset_start_{0};
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

// Document-granular cursor over a posting list (the A scan), bounded by a
// doc range: it starts at the range's first posting and reports AtEnd at
// the first posting >= doc_hi. offsets() decodes the current document's
// positions into an internal scratch buffer whose contents stay valid
// until the next offsets() call (Next/SkipTo do not touch it).
class PostingCursor {
 public:
  explicit PostingCursor(const PostingList* list, DocRange range = {})
      : list_(list), doc_hi_(range.doc_hi) {
    std::tie(pos_, end_) = list->Bounds(range);
  }

  bool AtEnd() const { return pos_ >= end_; }
  DocId doc() const { return list_->doc_at(pos_); }
  uint32_t tf() const { return list_->tf_at(pos_); }
  std::span<const Offset> offsets() {
    list_->DecodeOffsets(pos_, &scratch_);
    return scratch_;
  }

  // Posting index the cursor sits on (operators diff it across SkipTo to
  // count skip hits).
  size_t position() const { return pos_; }

  void Next() { ++pos_; }
  // Advances to the first posting with doc >= target (galloping skip). A
  // target at or past the range end lands on the end without a search; a
  // target inside it gallops to a posting no later than the end.
  void SkipTo(DocId target, uint64_t* probes = nullptr) {
    pos_ = target >= doc_hi_ ? end_ : list_->GallopTo(pos_, target, probes);
  }

 private:
  const PostingList* list_;
  DocId doc_hi_;
  size_t pos_ = 0;
  size_t end_ = 0;
  std::vector<Offset> scratch_;
};

// Document-granular cursor that touches only the doc/tf arrays (the CA
// scan). Same navigation interface and range bound as PostingCursor minus
// offsets().
class CountCursor {
 public:
  explicit CountCursor(const PostingList* list, DocRange range = {})
      : list_(list), doc_hi_(range.doc_hi) {
    std::tie(pos_, end_) = list->Bounds(range);
  }

  bool AtEnd() const { return pos_ >= end_; }
  DocId doc() const { return list_->doc_at(pos_); }
  uint32_t tf() const { return list_->tf_at(pos_); }

  size_t position() const { return pos_; }

  void Next() { ++pos_; }
  void SkipTo(DocId target, uint64_t* probes = nullptr) {
    pos_ = target >= doc_hi_ ? end_ : list_->GallopTo(pos_, target, probes);
  }

 private:
  const PostingList* list_;
  DocId doc_hi_;
  size_t pos_ = 0;
  size_t end_ = 0;
};

}  // namespace graft::index

#endif  // GRAFT_INDEX_POSTING_LIST_H_
