#include "index/segmented_index.h"

#include <algorithm>

namespace graft::index {

StatusOr<SegmentedIndex> SegmentedIndex::BuildFromMonolithic(
    const InvertedIndex& index, size_t num_segments,
    common::ThreadPool* pool) {
  if (num_segments == 0) {
    return Status::InvalidArgument("num_segments must be >= 1");
  }
  const uint64_t docs = index.doc_count();
  const size_t n = docs == 0
                       ? 1
                       : std::min<size_t>(num_segments,
                                          static_cast<size_t>(docs));

  SegmentedIndex segmented;
  segmented.doc_count_ = docs;
  segmented.total_words_ = index.total_words();

  // One shared global-frequency table; term ids are identical across
  // segments because every segment interns the vocabulary in order.
  const size_t vocab = index.term_count();
  segmented.global_doc_freq_.resize(vocab);
  segmented.global_collection_freq_.resize(vocab);
  for (TermId t = 0; t < vocab; ++t) {
    segmented.global_doc_freq_[t] = index.DocFreq(t);
    segmented.global_collection_freq_[t] = index.CollectionFreq(t);
  }

  // Segments are independent: each reads only the const source index and
  // writes only its own Segment, so they build concurrently.
  segmented.segments_.resize(n);
  std::vector<Status> statuses(n);
  common::ParallelFor(pool, /*max_workers=*/0, n, [&](size_t s) {
    Segment& seg = segmented.segments_[s];
    const DocId begin = static_cast<DocId>(docs * s / n);
    const DocId end = static_cast<DocId>(docs * (s + 1) / n);
    seg.base = begin;

    // Intern the full vocabulary in dictionary order: local TermId ==
    // monolithic TermId, and locally-absent terms resolve to empty scans
    // instead of unknown keywords (invariant 1 of the header comment).
    for (TermId t = 0; t < vocab; ++t) {
      const TermId local = seg.index.InternTerm(index.TermText(t));
      if (local != t) {
        statuses[s] = Status::Internal("segment term interning diverged");
        return;
      }
    }

    // Slice every posting list to [begin, end), rebasing doc ids.
    for (TermId t = 0; t < vocab; ++t) {
      seg.index.mutable_postings(t)->AppendSlice(index.postings(t), begin,
                                                 end);
    }

    // Local document lengths (per-document statistics resolve locally).
    std::vector<uint32_t> lengths(index.doc_lengths().begin() + begin,
                                  index.doc_lengths().begin() + end);
    uint64_t local_words = 0;
    for (const uint32_t length : lengths) {
      local_words += length;
    }
    seg.index.SetDocLengths(std::move(lengths), local_words);

    // Per-segment block-max metadata over the rebased slice, so each
    // segment can prune independently against its own local threshold.
    // Block boundaries move with the slice, so the frontiers are rebuilt,
    // not copied. Follows the source index: a v3-loaded index has no
    // metadata and its segments must not prune either (EXPLAIN reports
    // the same verdict).
    if (index.has_block_max()) {
      seg.index.BuildBlockMax();
    }

    seg.stats.doc_count = docs;
    seg.stats.total_words = index.total_words();
    seg.stats.doc_freq = segmented.global_doc_freq_.data();
    seg.stats.collection_freq = segmented.global_collection_freq_.data();
  });
  for (const Status& status : statuses) {
    GRAFT_RETURN_IF_ERROR(status);
  }
  return segmented;
}

}  // namespace graft::index
