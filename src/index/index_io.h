// Binary persistence for the inverted index — crash-safe and
// integrity-checked.
//
// SaveIndex writes format v5, the only format this build writes: a
// sectioned, mmap-able layout with delta + fixed-width bit-packed posting
// blocks and the block-max Pareto frontiers (normative spec:
// docs/index-format.md; constants: index/index_format.h). Every byte of
// the file is accounted for — prologue by direct comparison, section table
// and each section by CRC32C, inter-section padding validated zero — so
// the exhaustive bit-flip fuzz holds for it. SaveIndexV5 is a synonym.
//
// SaveIndex is atomic with respect to crashes: it writes to `path + ".tmp"`,
// fsyncs the data, renames over `path`, and fsyncs the parent directory.
// A writer killed at ANY point (the fork/kill chaos harness exercises
// every registered failpoint) leaves `path` either untouched or holding
// the complete new generation — never a torn mix. Registered failpoints:
// index_io.save.{open_tmp,header,term,before_sync,before_rename,
// before_dirsync} and index_io.load.{open,verify}.
//
// The loaders also read the two earlier layouts, as inputs only: v3
// (per-term u64 length-prefixed arrays, one CRC32C per section) and v4
// (v3 plus the frontier arrays inside each checksummed term record). A v4
// file's frontiers are restored as stored; a v3 file's are computed at
// load. Every index, built or loaded from any version, therefore carries
// block-max metadata. LoadIndex materializes the arrays; LoadIndexMapped
// keeps a v5 file mapped and serves postings zero-copy through a
// decoded-block cache.
//
// Loading is hardened against corrupt or truncated input and reports a
// distinct failure class per Status code:
//   * kVersionMismatch — magic matches but the version byte is not '3',
//     '4' or '5' (e.g. an index written by a different build);
//   * kDataLoss       — the file ends early (short read, or a declared
//     length exceeding the bytes remaining): a torn/truncated file;
//   * kCorruption     — the bytes are all there but wrong: a checksum
//     mismatch or an impossible structural invariant (out-of-range or
//     non-increasing doc ids, a zero tf, decreasing offsets).
// Every declared length is validated against the bytes remaining BEFORE
// allocation, and checksums and posting invariants are verified before
// content is used, so corrupt input can never cause UB or a giant
// allocation.

#ifndef GRAFT_INDEX_INDEX_IO_H_
#define GRAFT_INDEX_INDEX_IO_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "index/block_cache.h"
#include "index/inverted_index.h"

namespace graft::index {

// Writes format v5. Requires a materialized index; re-saving a mapped
// index means eager-loading it first (FailedPrecondition otherwise).
Status SaveIndex(const InvertedIndex& index, const std::string& path);
// Same as SaveIndex; kept for callers that name the format.
Status SaveIndexV5(const InvertedIndex& index, const std::string& path);
StatusOr<InvertedIndex> LoadIndex(const std::string& path);

struct MappedLoadOptions {
  // Decoded-block cache to charge this index's blocks against. Null gets
  // the index a private cache of `private_cache_bytes` — sharing one cache
  // across reload generations is what makes hot reload memory-bounded.
  std::shared_ptr<BlockCache> cache;
  size_t private_cache_bytes = size_t{64} << 20;
};

// Zero-copy load: validates every section checksum up front, then keeps
// the file mapped and serves postings through the block cache on demand.
// v3/v4 files (which have no packed sections) load materialized, exactly
// as LoadIndex loads them — callers can always opt in to mapped loading
// regardless of on-disk version.
StatusOr<InvertedIndex> LoadIndexMapped(const std::string& path,
                                        MappedLoadOptions options = {});

}  // namespace graft::index

#endif  // GRAFT_INDEX_INDEX_IO_H_
