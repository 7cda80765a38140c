#include "index/posting_list.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>

#include "common/packed_ints.h"

namespace graft::index {

namespace {

// Thread-local memo of the last few fetched blocks. Tight loops (scoring a
// run of postings inside one block, gallop refinement) hit the same
// (list, block, kind) repeatedly; the memo answers those without taking
// the cache mutex, and the held shared_ptr keeps the block alive so
// FetchBlock can hand out a raw pointer. Entries are keyed by generation
// as well as list address, so a reload that reuses a freed list's address
// can never alias a stale block.
struct BlockMemoEntry {
  const void* list = nullptr;
  uint64_t generation = 0;
  uint64_t block = 0;
  BlockKind kind = BlockKind::kDocs;
  BlockCache::BlockPtr data;
};

constexpr size_t kMemoSlots = 16;

BlockMemoEntry* MemoSlot(const void* list, size_t block, BlockKind kind) {
  thread_local std::array<BlockMemoEntry, kMemoSlots> memo;
  const size_t h = (reinterpret_cast<uintptr_t>(list) >> 4) ^ (block * 2 + 1) ^
                   (static_cast<size_t>(kind) << 3);
  return &memo[h % kMemoSlots];
}

}  // namespace

void PostingList::AddDocument(DocId doc, std::span<const Offset> offsets) {
  assert(!offsets.empty());
  assert(docs_.empty() || doc > docs_.back());
  docs_.push_back(doc);
  tfs_.push_back(static_cast<uint32_t>(offsets.size()));
  // Delta-encode: first position absolute, then gaps.
  Offset previous = 0;
  for (size_t i = 0; i < offsets.size(); ++i) {
    assert(i == 0 || offsets[i] > previous);
    PutVarint32(&encoded_offsets_, offsets[i] - previous);
    previous = offsets[i];
  }
  offset_start_.push_back(encoded_offsets_.size());
  total_positions_ += offsets.size();
}

void PostingList::DecodeOffsets(size_t i, std::vector<Offset>* out) const {
  if (is_packed()) {
    PackedDecodeOffsets(i, out);
    return;
  }
  out->clear();
  const uint32_t tf = tfs_[i];
  out->reserve(tf);
  const uint8_t* p = encoded_offsets_.data() + offset_start_[i];
  Offset running = 0;
  for (uint32_t k = 0; k < tf; ++k) {
    running += GetVarint32(&p);
    out->push_back(running);
  }
}

size_t PostingList::GallopTo(size_t from, DocId target,
                             uint64_t* probes) const {
  if (is_packed()) {
    return PackedGallopTo(from, target, probes);
  }
  const size_t n = docs_.size();
  if (from >= n || docs_[from] >= target) {
    if (probes != nullptr && from < n) {
      ++*probes;
    }
    return from;
  }
  // Gallop: double the step until we overshoot, then binary search inside
  // the final bracket. O(log distance) per skip.
  uint64_t local_probes = 1;  // the docs_[from] >= target check above
  size_t step = 1;
  size_t lo = from;
  size_t hi = from + step;
  while (hi < n && docs_[hi] < target) {
    ++local_probes;
    lo = hi;
    step <<= 1;
    hi = from + step;
  }
  hi = std::min(hi, n);
  size_t left = lo;
  size_t right = hi;
  while (left < right) {
    ++local_probes;
    const size_t mid = left + (right - left) / 2;
    if (docs_[mid] < target) {
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  if (probes != nullptr) {
    *probes += local_probes;
  }
  return left;
}

void PostingList::BuildBlockMax(std::span<const uint32_t> doc_lengths) {
  frontier_start_.assign(1, 0);
  frontier_tf_.clear();
  frontier_doc_length_.clear();
  const size_t n = docs_.size();
  std::vector<std::pair<uint32_t, uint32_t>> points;  // (tf, doc length)
  points.reserve(kBlockSize);
  for (size_t begin = 0; begin < n; begin += kBlockSize) {
    const size_t end = std::min(n, begin + kBlockSize);
    points.clear();
    uint32_t block_min_len = std::numeric_limits<uint32_t>::max();
    for (size_t i = begin; i < end; ++i) {
      const uint32_t len = doc_lengths[docs_[i]];
      points.emplace_back(tfs_[i], len);
      block_min_len = std::min(block_min_len, len);
    }
    // Skyline sweep, tf descending: a point survives iff its length is
    // strictly below every length seen at a higher (or equal, via the
    // secondary length-ascending sort) tf. The result is the Pareto
    // frontier with tf strictly decreasing and length strictly decreasing,
    // so the last emitted point always carries block_min_len.
    std::sort(points.begin(), points.end(),
              [](const std::pair<uint32_t, uint32_t>& a,
                 const std::pair<uint32_t, uint32_t>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    const size_t emitted_before = frontier_tf_.size();
    uint64_t running_min = std::numeric_limits<uint64_t>::max();
    for (const auto& [tf, len] : points) {
      if (len >= running_min) continue;
      if (frontier_tf_.size() - emitted_before == kMaxFrontierPoints - 1 &&
          len != block_min_len) {
        // Cap reached: one synthetic point (this tf, block min length)
        // dominates this and every remaining skyline point.
        frontier_tf_.push_back(tf);
        frontier_doc_length_.push_back(block_min_len);
        break;
      }
      frontier_tf_.push_back(tf);
      frontier_doc_length_.push_back(len);
      running_min = len;
    }
    frontier_start_.push_back(static_cast<uint32_t>(frontier_tf_.size()));
  }
}

void PostingList::RestoreBlockMax(std::vector<uint32_t> frontier_start,
                                  std::vector<uint32_t> frontier_tf,
                                  std::vector<uint32_t> frontier_doc_length) {
  frontier_start_ = std::move(frontier_start);
  frontier_tf_ = std::move(frontier_tf);
  frontier_doc_length_ = std::move(frontier_doc_length);
  assert(frontier_tf_.size() == frontier_doc_length_.size());
  assert(frontier_start_.size() ==
         (doc_count() + kBlockSize - 1) / kBlockSize + 1);
  assert(frontier_start_.front() == 0);
  assert(frontier_start_.back() == frontier_tf_.size());
}

void PostingList::RestoreFrom(std::vector<DocId> docs,
                              std::vector<uint32_t> tfs,
                              std::vector<uint64_t> offset_starts,
                              std::vector<uint8_t> encoded_offsets,
                              uint64_t total_positions) {
  docs_ = std::move(docs);
  tfs_ = std::move(tfs);
  offset_start_ = std::move(offset_starts);
  encoded_offsets_ = std::move(encoded_offsets);
  total_positions_ = total_positions;
  assert(offset_start_.size() == docs_.size() + 1);
}

void PostingList::RestorePacked(const PackedPostings& packed,
                                uint64_t collection_frequency) {
  assert(packed.cache != nullptr);
  assert(docs_.empty());
  packed_ = packed;
  total_positions_ = collection_frequency;
  // Drop the materialized-mode sentinel entry so accidental raw access
  // trips the asserts instead of reading a phantom empty list.
  offset_start_.clear();
}

void PostingList::UnpackBlock(size_t b, BlockKind kind,
                              DecodedBlock* out) const {
  const BlockHeaderV5& h = packed_.headers[b];
  const size_t begin = b * kBlockSize;
  const size_t n =
      std::min<size_t>(kBlockSize, packed_.doc_count - begin);
  out->count = static_cast<uint32_t>(n);
  const uint8_t* p = packed_.payload + h.payload_offset;
  // Doc gaps -> absolute ids. gap_0 is relative to the previous block's
  // last_doc + 1 (0 for the first block); later gaps store doc_i -
  // doc_{i-1} - 1 since ids are strictly increasing.
  common::UnpackInts(p, n, h.doc_bits, out->docs);
  uint32_t running = b == 0 ? 0 : packed_.headers[b - 1].last_doc + 1;
  for (size_t i = 0; i < n; ++i) {
    running += out->docs[i] + (i > 0 ? 1 : 0);
    out->docs[i] = running;
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
  // (relative to the term's offsets base) with one delimiting entry.
  uint32_t lens[kFmtV5BlockSize];
  common::UnpackInts(p, n, h.off_bits, lens);
  out->off_start[0] = h.offsets_base;
  for (size_t i = 0; i < n; ++i) {
    out->off_start[i + 1] = out->off_start[i] + lens[i];
  }
}

const DecodedBlock* PostingList::FetchBlock(size_t b, BlockKind kind) const {
  BlockMemoEntry* slot = MemoSlot(this, b, kind);
  if (slot->list == this && slot->generation == packed_.generation &&
      slot->block == b && slot->kind == kind && slot->data != nullptr) {
    return slot->data.get();
  }
  BlockCache::BlockPtr ptr =
      packed_.cache->Lookup(packed_.generation, packed_.term,
                            static_cast<uint32_t>(b), kind);
  if (ptr == nullptr) {
    auto decoded = std::make_shared<DecodedBlock>();
    UnpackBlock(b, kind, decoded.get());
    ptr = std::move(decoded);
    packed_.cache->Insert(packed_.generation, packed_.term,
                          static_cast<uint32_t>(b), kind, ptr);
  }
  slot->list = this;
  slot->generation = packed_.generation;
  slot->block = b;
  slot->kind = kind;
  slot->data = std::move(ptr);
  return slot->data.get();
}

DocId PostingList::PackedDocAt(size_t i) const {
  const size_t b = i / kBlockSize;
  return FetchBlock(b, BlockKind::kDocs)->docs[i - b * kBlockSize];
}

uint32_t PostingList::PackedTfAt(size_t i) const {
  const size_t b = i / kBlockSize;
  return FetchBlock(b, BlockKind::kFull)->tfs[i - b * kBlockSize];
}

void PostingList::PackedDecodeOffsets(size_t i,
                                      std::vector<Offset>* out) const {
  const size_t b = i / kBlockSize;
  const DecodedBlock* block = FetchBlock(b, BlockKind::kFull);
  const size_t j = i - b * kBlockSize;
  out->clear();
  const uint32_t tf = block->tfs[j];
  out->reserve(tf);
  const uint8_t* p = packed_.offsets + block->off_start[j];
  Offset running = 0;
  for (uint32_t k = 0; k < tf; ++k) {
    running += GetVarint32(&p);
    out->push_back(running);
  }
}

size_t PostingList::PackedGallopTo(size_t from, DocId target,
                                   uint64_t* probes) const {
  const size_t n = packed_.doc_count;
  if (from >= n) {
    return from;
  }
  uint64_t local_probes = 1;  // the doc_at(from) >= target check
  const size_t from_block = from / kBlockSize;
  if (FetchBlock(from_block, BlockKind::kDocs)
          ->docs[from - from_block * kBlockSize] >= target) {
    if (probes != nullptr) {
      *probes += local_probes;
    }
    return from;
  }
  // Block-level binary search over the header last_doc array (no payload
  // touched): first block whose last_doc can contain `target`.
  const size_t num_blocks = (n + kBlockSize - 1) / kBlockSize;
  size_t left = from_block;
  size_t right = num_blocks;
  while (left < right) {
    ++local_probes;
    const size_t mid = left + (right - left) / 2;
    if (packed_.headers[mid].last_doc < target) {
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  if (left == num_blocks) {
    if (probes != nullptr) {
      *probes += local_probes;
    }
    return n;
  }
  // In-block binary search over the decoded doc-id column.
  const DecodedBlock* block = FetchBlock(left, BlockKind::kDocs);
  const size_t base = left * kBlockSize;
  size_t lo = left == from_block ? from - base + 1 : 0;
  size_t hi = block->count;
  while (lo < hi) {
    ++local_probes;
    const size_t mid = lo + (hi - lo) / 2;
    if (block->docs[mid] < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (probes != nullptr) {
    *probes += local_probes;
  }
  // The block-level search guarantees a hit inside this block.
  assert(base + lo < n);
  return base + lo;
}

}  // namespace graft::index
