#include "index/posting_list.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/packed_ints.h"
#include "index/varint.h"

namespace graft::index {

namespace {

// First index in [from, n) whose key is >= target, n if none: doubling
// steps from `from`, then a binary search inside the last bracket, so a
// short skip costs O(log distance). Adds one to *probes per key compared.
template <typename Key>
size_t Gallop(size_t from, size_t n, DocId target, const Key& key,
              uint64_t* probes) {
  size_t lo = from;
  size_t hi = from;
  for (size_t step = 1; hi < n; step <<= 1) {
    ++*probes;
    if (key(hi) >= target) break;
    lo = hi + 1;
    hi = from + step;
  }
  hi = std::min(hi, n);
  while (lo < hi) {
    ++*probes;
    const size_t mid = lo + (hi - lo) / 2;
    if (key(mid) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Decodes posting i's delta-varint positions into `out` (cleared first).
// Reads only the posting's own bytes: a tf above what they hold (every
// varint is at least one byte) stops at their end.
void DecodeOffsets(const PostingBlock& block, size_t i,
                   std::vector<Offset>* out) {
  out->clear();
  const uint8_t* p = block.offsets + block.off_starts[i];
  const uint8_t* end = block.offsets + block.off_starts[i + 1];
  const uint32_t tf = block.tfs[i];
  out->reserve(std::min<size_t>(tf, end > p ? end - p : 0));
  Offset running = 0;
  uint32_t delta = 0;
  for (uint32_t k = 0; k < tf && GetVarint32(&p, end, &delta); ++k) {
    running += delta;
    out->push_back(running);
  }
}

}  // namespace

void AppendFrontiers(std::span<const DocId> docs,
                     std::span<const uint32_t> tfs,
                     std::span<const uint32_t> doc_lengths,
                     std::vector<uint32_t>* out) {
  constexpr size_t kBlock = PostingList::kBlockSize;
  const size_t n = docs.size();
  std::vector<std::pair<uint32_t, uint32_t>> frontier;  // (tf, doc length)
  uint32_t block_tfs[kBlock];
  uint32_t block_lens[kBlock];
  out->push_back(0);
  for (size_t begin = 0; begin < n; begin += kBlock) {
    const size_t m = std::min(n - begin, kBlock);
    uint32_t block_min_len = std::numeric_limits<uint32_t>::max();
    for (size_t i = 0; i < m; ++i) {
      block_tfs[i] = tfs[begin + i];
      block_lens[i] = doc_lengths[docs[begin + i]];
      block_min_len = std::min(block_min_len, block_lens[i]);
    }
    // The skyline, tf descending, one pass over the block per point: the
    // next point is the highest tf among postings strictly shorter than
    // the last point, at its shortest length. Tf and length both strictly
    // decrease, and the last point carries block_min_len, so a posting
    // that short always remains until it is emitted.
    const size_t emitted_before = frontier.size();
    uint64_t running_min = std::numeric_limits<uint64_t>::max();
    while (running_min != block_min_len) {
      size_t best = m;
      for (size_t i = 0; i < m; ++i) {
        if (block_lens[i] < running_min &&
            (best == m || block_tfs[i] > block_tfs[best] ||
             (block_tfs[i] == block_tfs[best] &&
              block_lens[i] < block_lens[best]))) {
          best = i;
        }
      }
      const uint32_t tf = block_tfs[best];
      const uint32_t len = block_lens[best];
      if (frontier.size() - emitted_before ==
              PostingList::kMaxFrontierPoints - 1 &&
          len != block_min_len) {
        // Cap reached: one synthetic point (this tf, block min length)
        // dominates this and every remaining skyline point.
        frontier.emplace_back(tf, block_min_len);
        break;
      }
      frontier.emplace_back(tf, len);
      running_min = len;
    }
    out->push_back(static_cast<uint32_t>(frontier.size()));
  }
  for (const auto& point : frontier) out->push_back(point.first);
  for (const auto& point : frontier) out->push_back(point.second);
}

PostingList::PostingList(size_t doc_count, uint64_t collection_frequency,
                         const DecodedPostings& decoded,
                         const Frontiers& frontiers)
    : doc_count_(doc_count),
      total_positions_(collection_frequency),
      offsets_(decoded.offsets),
      offsets_length_(decoded.offset_starts[doc_count]),
      frontiers_(frontiers),
      docs_(decoded.docs),
      tfs_(decoded.tfs),
      offset_starts_(decoded.offset_starts) {}

PostingList::PostingList(const PackedPostings& packed,
                         uint64_t collection_frequency,
                         const Frontiers& frontiers)
    : doc_count_(packed.doc_count),
      total_positions_(collection_frequency),
      offsets_(packed.offsets),
      offsets_length_(packed.offsets_length),
      frontiers_(frontiers),
      headers_(packed.headers),
      payload_(packed.payload),
      cache_(packed.cache),
      generation_(packed.generation),
      term_(packed.term) {
  assert(cache_ != nullptr);
}

std::vector<Offset> PostingList::OffsetsAt(size_t i) const {
  std::vector<Offset> out;
  DecodeOffsets(Block(i / kBlockSize, BlockKind::kFull), i % kBlockSize,
                &out);
  return out;
}

PostingBlock PostingList::Block(size_t b, BlockKind kind) const {
  const size_t begin = b * kBlockSize;
  const size_t n = std::min<size_t>(kBlockSize, doc_count_ - begin);
  if (!is_packed()) {
    return {{docs_ + begin, n},
            {tfs_ + begin, n},
            {offset_starts_ + begin, n + 1},
            offsets_,
            nullptr};
  }
  const uint32_t block = static_cast<uint32_t>(b);
  BlockCache::BlockPtr ptr = cache_->Lookup(generation_, term_, block, kind);
  if (ptr == nullptr) {
    auto decoded = std::make_shared<DecodedBlock>();
    UnpackBlock(b, kind, decoded.get());
    ptr = std::move(decoded);
    cache_->Insert(generation_, term_, block, kind, ptr);
  }
  PostingBlock view;
  view.docs = {ptr->docs, n};
  if (kind == BlockKind::kFull) {
    view.tfs = {ptr->tfs, n};
    view.off_starts = {ptr->off_start, n + 1};
  }
  view.offsets = offsets_;
  view.pin = std::move(ptr);
  return view;
}

void PostingList::UnpackBlock(size_t b, BlockKind kind,
                              DecodedBlock* out) const {
  const BlockHeaderV5& h = headers_[b];
  const size_t begin = b * kBlockSize;
  const size_t n = std::min<size_t>(kBlockSize, doc_count_ - begin);
  out->count = static_cast<uint32_t>(n);
  const uint8_t* p = payload_ + h.payload_offset;
  // Doc gaps -> absolute ids. gap_0 is relative to the previous block's
  // last_doc + 1 (0 for the first block); later gaps store doc_i -
  // doc_{i-1} - 1 since ids are strictly increasing. The header's last_doc
  // (checked against the collection at load) caps them, so a forged gap
  // cannot name a document past the collection.
  common::UnpackInts(p, n, h.doc_bits, out->docs);
  uint32_t running = b == 0 ? 0 : headers_[b - 1].last_doc + 1;
  for (size_t i = 0; i < n; ++i) {
    running += out->docs[i] + (i > 0 ? 1 : 0);
    out->docs[i] = std::min(running, h.last_doc);
  }
  if (kind == BlockKind::kDocs) {
    return;
  }
  p += common::PackedBytes(n, h.doc_bits);
  common::UnpackInts(p, n, h.tf_bits, out->tfs);
  for (size_t i = 0; i < n; ++i) {
    ++out->tfs[i];  // stored as tf - 1
  }
  p += common::PackedBytes(n, h.tf_bits);
  // Per-doc position-varint byte lengths, prefix-summed into offsets
  // (relative to the term's offsets base) with one delimiting entry. The
  // block's bytes end where the next block's begin (the term's end for
  // the last block); the load checked that those bases are monotone and
  // inside the term's bytes, and every start is capped there, so a forged
  // length cannot point a decode outside the term.
  const uint64_t limit =
      b + 1 < block_count() ? headers_[b + 1].offsets_base : offsets_length_;
  uint32_t lens[kFmtV5BlockSize];
  common::UnpackInts(p, n, h.off_bits, lens);
  uint64_t start = h.offsets_base;
  out->off_start[0] = h.offsets_base;
  for (size_t i = 0; i < n; ++i) {
    start = std::min(start + lens[i], limit);
    out->off_start[i + 1] = static_cast<uint32_t>(start);
  }
}

PostingCursor::PostingCursor(const PostingList* list, DocRange range)
    : list_(list), end_(list->doc_count()) {
  if (end_ == 0) return;
  // Unbounded while the range's edges are searched.
  Load(0, BlockKind::kDocs);
  SkipTo(range.doc_lo);
  if (range.doc_hi != kInvalidDoc && !AtEnd()) {
    // A copy finds the end, so the cursor keeps its starting block.
    PostingCursor probe = *this;
    probe.SkipTo(range.doc_hi);
    end_ = probe.pos_;
  }
  doc_hi_ = range.doc_hi;
}

std::span<const Offset> PostingCursor::offsets() {
  DecodeOffsets(Full(), pos_ - begin_, &scratch_);
  return scratch_;
}

void PostingCursor::Load(size_t b, BlockKind kind) {
  view_ = list_->Block(b, kind);
  begin_ = b * PostingList::kBlockSize;
}

void PostingCursor::SkipTo(DocId target, uint64_t* probes) {
  if (target >= doc_hi_) {
    pos_ = end_;
    return;
  }
  if (AtEnd()) return;
  uint64_t local_probes = 1;  // the doc() >= target check
  size_t i = pos_ - begin_;
  if (view_.docs[i] < target) {
    size_t from = i + 1;
    const size_t b = begin_ / PostingList::kBlockSize;
    ++local_probes;
    if (list_->block_last_doc(b) < target) {
      const size_t next = Gallop(
          b + 1, list_->block_count(), target,
          [this](size_t k) { return list_->block_last_doc(k); },
          &local_probes);
      if (next == list_->block_count()) {
        // No posting reaches the target, so the range ends with the list.
        pos_ = end_;
        if (probes != nullptr) *probes += local_probes;
        return;
      }
      Load(next, BlockKind::kDocs);
      from = 0;
    }
    // The block's last doc reaches the target: the search stays inside.
    i = Gallop(from, view_.docs.size(), target,
               [this](size_t k) { return view_.docs[k]; }, &local_probes);
  }
  pos_ = begin_ + i;
  if (probes != nullptr) *probes += local_probes;
}

}  // namespace graft::index
