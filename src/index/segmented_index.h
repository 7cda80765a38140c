// A partitioned view of the corpus for parallel query execution.
//
// The corpus is split into N contiguous doc-id ranges over ONE index; a
// segment is nothing but its range. Each segment's postings are the
// monolithic postings restricted to [doc_lo, doc_hi): every cursor and
// top-k stream of a segment starts at its range's first posting and stops
// at the first posting >= doc_hi (index::DocRange). Doc ids stay global,
// and every segment reads the one index's own collection statistics
// (collection size, total words, per-term document/collection frequency),
// so a document's score computed inside its segment is bit-identical to
// its score over the whole index (GRAFT scores are functions of
// per-document match rows plus collection-level statistics only —
// Section 4's α/ω signatures). Per-segment ranked streams therefore merge
// exactly (Fagin-style: independently ranked streams combined by a
// score-ordered merge).
//
// Nothing is copied: building the partition costs N range computations,
// and a mapped (v5) index stays mapped under any segment count.

#ifndef GRAFT_INDEX_SEGMENTED_INDEX_H_
#define GRAFT_INDEX_SEGMENTED_INDEX_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "index/inverted_index.h"
#include "index/posting_list.h"

namespace graft::index {

class SegmentedIndex {
 public:
  // Partitions `index` into `num_segments` contiguous doc-id ranges of
  // near-equal size (clamped to the document count; at least 1). The
  // ranges refer to `index`, which must outlive every search over them.
  static StatusOr<SegmentedIndex> BuildFromMonolithic(
      const InvertedIndex& index, size_t num_segments);

  size_t segment_count() const { return ranges_.size(); }
  const DocRange& segment(size_t i) const { return ranges_[i]; }

 private:
  SegmentedIndex() = default;

  std::vector<DocRange> ranges_;
};

}  // namespace graft::index

#endif  // GRAFT_INDEX_SEGMENTED_INDEX_H_
