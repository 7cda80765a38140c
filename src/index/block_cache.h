// Generation-keyed LRU cache of decoded posting blocks — the only path
// between a v5 mmap-loaded index's packed bytes and the query engine.
//
// A packed PostingList never materializes its arrays. Its one block fetch
// (PostingList::Block) resolves (term, block) pairs through this cache: a
// hit returns the already-decoded 128-entry block, a miss bit-unpacks the
// block from the mapped payload bytes and inserts it. A PostingCursor
// fetches a block once per visit and holds the returned pointer until it
// leaves the block, so entries evicted meanwhile stay alive for it. Two
// decode granularities exist so block-max pruning can align on doc ids
// without paying for score payloads:
//
//   kDocs  doc-id column only — what a cursor fetches on entering a block;
//   kFull  docs + tfs + per-doc position-byte offsets — the upgrade on the
//          first tf() or offsets() read inside the block.
//
// Keys carry a GENERATION: a process-unique id stamped on every mmap load
// (BlockCache::NextGeneration). A hot reload loads the new file under a
// fresh generation, so old entries can never serve new-index reads; the
// server calls EraseGeneration(old) after the swap so the dead entries
// release their memory immediately instead of aging out of the LRU.
//
// Metering: hits / misses / evictions / inserted bytes are kept twice —
// process-wide atomics (snapshot(): /stats, /metrics) and a thread-local
// accumulator (TlsBlockCacheCounters: captured around query execution
// into ExecStats, so EXPLAIN ANALYZE attributes cache traffic per query).
//
// Thread safety: all public methods are safe for concurrent use. Lookup
// and Insert are separate calls so the decode itself runs OUTSIDE the
// cache mutex; two threads missing the same block decode it twice and
// both inserts are accepted (last one wins) — wasted work, never a wrong
// answer, since decoding is deterministic.

#ifndef GRAFT_INDEX_BLOCK_CACHE_H_
#define GRAFT_INDEX_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/counters.h"
#include "index/index_format.h"

namespace graft::index {

enum class BlockKind : uint8_t { kDocs = 0, kFull = 1 };

// One decoded 128-entry posting block. For kDocs entries only `docs` is
// populated; `off_start[i]` is the byte offset (into the term's position
// blob) of posting i's varint run, with one extra delimiting entry.
struct DecodedBlock {
  uint32_t count = 0;
  uint32_t docs[kFmtV5BlockSize];
  uint32_t tfs[kFmtV5BlockSize];
  uint32_t off_start[kFmtV5BlockSize + 1];
};

// Per-thread cache-traffic accumulator, reset-and-harvested around query
// execution by the engine (src/core/engine.cc).
struct BlockCacheTls {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t payload_decodes = 0;  // kFull misses: blocks whose score payload
                                 // was actually unpacked
};
BlockCacheTls& TlsBlockCacheCounters();

class BlockCache {
 public:
  using BlockPtr = std::shared_ptr<const DecodedBlock>;

  // `capacity_bytes` bounds the decoded-block working set (0 = a single
  // block, effectively uncached). Entries are charged sizeof(DecodedBlock)
  // plus bookkeeping.
  explicit BlockCache(size_t capacity_bytes);

  // Process-unique generation id for a freshly loaded index.
  static uint64_t NextGeneration();

  // Returns the cached block or null; counts a hit or miss (global + TLS).
  BlockPtr Lookup(uint64_t generation, uint32_t term, uint32_t block,
                  BlockKind kind);
  // Publishes a freshly decoded block, evicting LRU entries over capacity.
  // `kind == kFull` counts a payload decode.
  void Insert(uint64_t generation, uint32_t term, uint32_t block,
              BlockKind kind, BlockPtr value);

  // Drops every entry of `generation` (hot-reload invalidation).
  void EraseGeneration(uint64_t generation);

  struct Snapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts = 0;
    uint64_t payload_decodes = 0;
    uint64_t bytes = 0;           // current resident decoded bytes
    uint64_t capacity_bytes = 0;
    uint64_t entries = 0;
  };
  Snapshot snapshot() const;

  // Bytes charged per resident entry (block + bookkeeping); public so
  // tests and capacity planning can size caches in whole entries.
  static constexpr size_t kEntryCharge = sizeof(DecodedBlock) + 128;

 private:
  struct Key {
    uint64_t generation;
    uint32_t term;
    uint32_t block;
    BlockKind kind;
    bool operator==(const Key& o) const {
      return generation == o.generation && term == o.term &&
             block == o.block && kind == o.kind;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.generation * 0x9e3779b97f4a7c15ULL;
      h ^= (uint64_t{k.term} << 33) | (uint64_t{k.block} << 1) |
           static_cast<uint64_t>(k.kind);
      h *= 0xff51afd7ed558ccdULL;
      return static_cast<size_t>(h ^ (h >> 33));
    }
  };
  struct Entry {
    Key key;
    BlockPtr value;
  };

  const size_t capacity_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  size_t bytes_ = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> payload_decodes_{0};
};

// Every Snapshot field, in the order SearchService renders them: the
// "block_cache" object of /stats and the graft_block_cache_* rows of
// /metrics.
inline constexpr common::CounterRow<BlockCache::Snapshot>
    kBlockCacheCounters[] = {
        {&BlockCache::Snapshot::hits, "hits", "graft_block_cache_hits_total",
         "Decoded-block cache lookups served from cache."},
        {&BlockCache::Snapshot::misses, "misses",
         "graft_block_cache_misses_total",
         "Decoded-block cache lookups that decoded from the mapped file."},
        {&BlockCache::Snapshot::evictions, "evictions",
         "graft_block_cache_evictions_total",
         "Decoded blocks evicted by LRU capacity pressure."},
        {&BlockCache::Snapshot::inserts, "inserts",
         "graft_block_cache_inserts_total",
         "Decoded blocks inserted into the cache."},
        {&BlockCache::Snapshot::payload_decodes, "payload_decodes",
         "graft_block_cache_payload_decodes_total",
         "Full-payload (docs+tfs+offsets) block decodes."},
        {&BlockCache::Snapshot::bytes, "bytes", "graft_block_cache_bytes",
         "Resident decoded bytes in the cache."},
        {&BlockCache::Snapshot::capacity_bytes, "capacity_bytes",
         "graft_block_cache_capacity_bytes",
         "Configured decoded-block cache capacity."},
        {&BlockCache::Snapshot::entries, "entries", "graft_block_cache_entries",
         "Decoded blocks resident in the cache."},
};
static_assert(sizeof(BlockCache::Snapshot) ==
                  std::size(kBlockCacheCounters) * sizeof(uint64_t),
              "every Snapshot field needs a kBlockCacheCounters row");

}  // namespace graft::index

#endif  // GRAFT_INDEX_BLOCK_CACHE_H_
