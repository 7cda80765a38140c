// A partitioned view of the corpus for parallel query execution.
//
// The corpus is split into N contiguous doc-id ranges; each segment is a
// self-contained InvertedIndex over its range (local doc ids 0..n-1,
// global id = segment base + local id). Two invariants make per-segment
// execution *score-consistent* with the monolithic index (GRAFT scores
// are functions of per-document match rows plus collection-level
// statistics only — Section 4's α/ω signatures):
//
//   1. Every segment interns the FULL monolithic vocabulary in dictionary
//      order, so local TermIds equal monolithic TermIds and a term that
//      has no postings in a segment still resolves (to an empty scan)
//      with its correct global document frequency — α(∅) of a
//      frequency-sensitive scheme sees identical statistics everywhere.
//   2. Each segment's StatsView carries a GlobalStats table (collection
//      size, total words, per-term document/collection frequency of the
//      whole corpus), so collection-level statistics are identical across
//      segments while per-document statistics resolve locally.
//
// Under these invariants a document's score computed inside its segment
// is bit-identical to its score in the monolithic index, and per-segment
// ranked streams merge exactly (Fagin-style: independently ranked streams
// combined by a score-ordered merge).
//
// Each segment's postings are an exact slice of the monolithic postings,
// copied by range (PostingList::AppendSlice: no position varint is
// decoded or re-encoded for an in-heap source), and the segments are
// built concurrently on a caller-supplied thread pool. Only the block-max
// frontiers are recomputed, because block boundaries move with the slice.

#ifndef GRAFT_INDEX_SEGMENTED_INDEX_H_
#define GRAFT_INDEX_SEGMENTED_INDEX_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "index/inverted_index.h"
#include "index/stats.h"

namespace graft::index {

class SegmentedIndex {
 public:
  struct Segment {
    InvertedIndex index;  // local doc ids 0..doc_count-1
    DocId base = 0;       // global doc id of local doc 0
    // Collection-level statistics of the whole corpus; frequency tables
    // are owned by the enclosing SegmentedIndex (term ids are shared).
    GlobalStats stats;
  };

  // Partitions `index` into `num_segments` contiguous doc-id ranges of
  // near-equal size (clamped to the document count; at least 1). Each
  // segment's postings are sliced out of `index` by range copy; the source
  // index is not retained. Segments build concurrently on `pool` (the
  // calling thread joins in); a null pool builds them one after another.
  // The result is identical either way.
  static StatusOr<SegmentedIndex> BuildFromMonolithic(
      const InvertedIndex& index, size_t num_segments,
      common::ThreadPool* pool = nullptr);

  SegmentedIndex(SegmentedIndex&&) = default;
  SegmentedIndex& operator=(SegmentedIndex&&) = default;

  size_t segment_count() const { return segments_.size(); }
  const Segment& segment(size_t i) const { return segments_[i]; }

  uint64_t doc_count() const { return doc_count_; }
  uint64_t total_words() const { return total_words_; }

  DocId ToGlobal(size_t segment, DocId local) const {
    return segments_[segment].base + local;
  }

 private:
  SegmentedIndex() = default;

  std::vector<Segment> segments_;
  uint64_t doc_count_ = 0;
  uint64_t total_words_ = 0;
  // Indexed by (shared) TermId; referenced by every segment's GlobalStats.
  std::vector<uint64_t> global_doc_freq_;
  std::vector<uint64_t> global_collection_freq_;
};

}  // namespace graft::index

#endif  // GRAFT_INDEX_SEGMENTED_INDEX_H_
