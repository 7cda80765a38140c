#include "index/segmented_index.h"

#include <algorithm>

namespace graft::index {

StatusOr<SegmentedIndex> SegmentedIndex::BuildFromMonolithic(
    const InvertedIndex& index, size_t num_segments) {
  if (num_segments == 0) {
    return Status::InvalidArgument("num_segments must be >= 1");
  }
  const uint64_t docs = index.doc_count();
  const size_t n = docs == 0
                       ? 1
                       : std::min<size_t>(num_segments,
                                          static_cast<size_t>(docs));
  SegmentedIndex segmented;
  segmented.ranges_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    segmented.ranges_.push_back({static_cast<DocId>(docs * s / n),
                                 static_cast<DocId>(docs * (s + 1) / n)});
  }
  return segmented;
}

}  // namespace graft::index
