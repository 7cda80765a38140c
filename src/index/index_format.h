// On-disk index format constants — the single source of truth behind
// docs/index-format.md. tools/check_docs.py parses the `kFmt*` constants
// in THIS header and fails CI when the spec page's tables disagree, so a
// layout change cannot land without its documentation.
//
// Version history (normative layout in docs/index-format.md):
//   '3'  uncompressed per-term arrays, per-section CRC32C (PR 3)
//   '4'  v3 + per-block (tf, doc length) Pareto-frontier arrays inside the
//        per-term checksummed record (PR 5)
//   '5'  sectioned, mmap-able layout: delta + fixed-width bit-packed
//        128-entry posting blocks with per-block headers (frontier
//        metadata rides along), zero-copy payload/offsets access, still
//        CRC32C per section and written by the same tmp+fsync+rename
//        crash-safe protocol (this PR)

#ifndef GRAFT_INDEX_INDEX_FORMAT_H_
#define GRAFT_INDEX_INDEX_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace graft::index {

// 7-byte magic + 1 format-version byte. LoadIndex reads '3', '4' and '5';
// SaveIndex writes only kFmtVersionV5, the sectioned layout below.
inline constexpr char kFmtMagic[7] = {'G', 'R', 'F', 'T', 'I', 'D', 'X'};
inline constexpr char kFmtVersionV3 = '3';
inline constexpr char kFmtVersionV4 = '4';
inline constexpr char kFmtVersionV5 = '5';

// ---- v5 sectioned layout ----
//
// After the 8-byte prologue comes a fixed-size section table: one
// kFmtV5SectionCount-entry array of {u64 offset, u64 length} pairs plus a
// u32 CRC32C of the table bytes. Every section's byte range is covered by
// its own trailing u32 CRC32C (stored immediately after the section, NOT
// included in `length`), verified by the loader before any content is
// trusted — eager and mmap loads alike.

enum class FmtV5Section : uint32_t {
  kCollection = 0,    // u64 doc_count | u64 total_words | u64 n | u32 n×doc_length
  kTermDict = 1,      // u64 term_count | per term: u32 len | bytes
  kTermMeta = 2,      // TermMetaV5[term_count]
  kBlockHeaders = 3,  // BlockHeaderV5[total_blocks]
  kPayload = 4,       // bit-packed block payloads (docs ‖ tfs ‖ offset lens)
  kOffsets = 5,       // delta-varint position bytes (byte-identical to v4)
  kFrontiers = 6,     // per term: u32 n_pts | u32 (blocks+1)×start | u32 n_pts×tf
                      //           | u32 n_pts×doc_length
};
inline constexpr uint32_t kFmtV5SectionCount = 7;

// Postings are grouped into fixed 128-document blocks (must equal
// PostingList::kBlockSize; static_assert in index_io.cc).
inline constexpr size_t kFmtV5BlockSize = 128;

// Fixed-width per-block header: everything a reader needs to locate and
// decode one block — and everything block-max pruning needs to SKIP one
// (last_doc + the frontier arrays) — without touching payload bytes.
struct BlockHeaderV5 {
  uint32_t last_doc;        // largest doc id in the block (skip target)
  uint32_t payload_offset;  // byte offset from the term's payload base
  uint32_t offsets_base;    // byte offset from the term's offsets base
  uint8_t doc_bits;         // packed width of the doc-gap column
  uint8_t tf_bits;          // packed width of the (tf - 1) column
  uint8_t off_bits;         // packed width of the offsets-byte-length column
  uint8_t reserved;         // must be 0
};
static_assert(sizeof(BlockHeaderV5) == 16, "on-disk layout is 16 bytes");
inline constexpr size_t kFmtV5BlockHeaderBytes = sizeof(BlockHeaderV5);

// Fixed-width per-term record. Offsets address into the payload/offsets
// sections; block headers live at [block_begin, block_begin + ceil(
// doc_count / kFmtV5BlockSize)) of the global block-header array.
struct TermMetaV5 {
  uint64_t doc_count;             // postings in the term's list
  uint64_t collection_frequency;  // total occurrences across documents
  uint64_t block_begin;           // first BlockHeaderV5 index
  uint64_t payload_begin;         // byte offset into kPayload
  uint64_t offsets_begin;         // byte offset into kOffsets
  uint64_t offsets_length;        // bytes of position varints
};
static_assert(sizeof(TermMetaV5) == 48, "on-disk layout is 48 bytes");
inline constexpr size_t kFmtV5TermMetaBytes = sizeof(TermMetaV5);

// Block payload layout: three back-to-back packed columns, each starting
// on a byte boundary —
//   docs:  n gaps at doc_bits   (gap_0 = doc_0 - base, gap_i = doc_i -
//          doc_{i-1} - 1; base = 0 for block 0, else previous block's
//          last_doc + 1)
//   tfs:   n values at tf_bits  (stored as tf - 1; tf >= 1 always)
//   lens:  n values at off_bits (byte length of each doc's position
//          varint run; prefix-summed from offsets_base at decode)

}  // namespace graft::index

#endif  // GRAFT_INDEX_INDEX_FORMAT_H_
