// The term-position inverted index plus collection statistics: the physical
// substrate beneath every GRAFT plan leaf.
//
// An InvertedIndex owns every array its posting lists view (PostingList
// is a non-owning view, posting_list.h), in one of two layouts set by
// how the index was made:
//
//   * IndexBuilder output, an eager v5 load and a v3/v4 conversion hold
//     index-wide columns (docs, tfs, offset starts, position bytes and
//     block-max frontiers), term after term, one exact-size allocation
//     each, and keep nothing of any file, so replacing the file in place
//     cannot fault a query;
//   * a mapped v5 load keeps the file region, and its lists point into it.
//
// Moving an index moves the owners, never the arrays, so the views
// survive the move. The term dictionary is a flat open-addressing table
// of term ids over the term texts.

#ifndef GRAFT_INDEX_INVERTED_INDEX_H_
#define GRAFT_INDEX_INVERTED_INDEX_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/mmap_region.h"
#include "common/status.h"
#include "index/block_cache.h"
#include "index/posting_list.h"
#include "index/types.h"

namespace graft::index {

// What an index's posting lists view: the columns, or the region of a
// mapped v5 load (see the head of this file).
struct PostingStorage {
  // Every term's postings, term after term; term t's offset starts begin
  // t entries past its first posting.
  std::unique_ptr<DocId[]> docs;
  std::unique_ptr<uint32_t[]> tfs;
  std::unique_ptr<uint32_t[]> offset_starts;
  std::unique_ptr<uint8_t[]> offsets;
  // Every term's frontier run (an eager v5 load keeps the file's u32
  // point count before each).
  std::unique_ptr<uint32_t[]> frontiers;
  // Mapped v5 loads: the file region every list points into.
  std::shared_ptr<common::MmapRegion> region;

  // Uninitialized columns for `terms` terms holding `postings` postings,
  // `position_bytes` position bytes and `frontier_words` frontier words.
  static PostingStorage Columns(uint64_t terms, uint64_t postings,
                                uint64_t position_bytes,
                                uint64_t frontier_words);
};

class InvertedIndex {
 public:
  InvertedIndex() = default;

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  // Term lookup. Returns kInvalidTerm if the term does not occur.
  TermId LookupTerm(std::string_view term) const;
  const std::string& TermText(TermId term) const { return terms_[term]; }
  size_t term_count() const { return terms_.size(); }

  // Collection statistics (the paper's Figure 1 vocabulary).
  uint64_t doc_count() const { return doc_lengths_.size(); }
  uint64_t total_words() const { return total_words_; }
  double average_doc_length() const {
    return doc_count() == 0
               ? 0.0
               : static_cast<double>(total_words_) /
                     static_cast<double>(doc_count());
  }
  uint32_t doc_length(DocId doc) const { return doc_lengths_[doc]; }

  // #Docs in Figure 1: number of documents containing the term.
  uint64_t DocFreq(TermId term) const {
    return postings_[term].doc_count();
  }
  uint64_t CollectionFreq(TermId term) const {
    return postings_[term].collection_frequency();
  }

  const PostingList& postings(TermId term) const { return postings_[term]; }

  // #InDoc in Figure 1: occurrences of `term` in `doc` (0 if absent).
  // One cold cursor skip; used by scoring, not by scans (a caller probing
  // ascending doc ids keeps its own PostingCursor instead).
  uint32_t TermFreqInDoc(TermId term, DocId doc) const;

  // ---- Construction interface (used by IndexBuilder and index_io) ----
  // Sizes the term table and list array for `terms` terms, so interning
  // that many never rehashes or reallocates.
  void ReserveTerms(size_t terms);
  // The term's id; a new term gets the next id and an empty list.
  TermId InternTerm(std::string_view term);
  PostingList* mutable_postings(TermId term) { return &postings_[term]; }
  void AppendDocLength(uint32_t length) {
    doc_lengths_.push_back(length);
    total_words_ += length;
  }
  void SetDocLengths(std::vector<uint32_t> lengths, uint64_t total_words) {
    doc_lengths_ = std::move(lengths);
    total_words_ = total_words;
  }
  const std::vector<uint32_t>& doc_lengths() const { return doc_lengths_; }
  // Takes ownership of the arrays the posting lists view.
  void AdoptStorage(PostingStorage storage) { storage_ = std::move(storage); }
  // Copies each interned term's postings, terms[t] for term t, and
  // `frontiers` (every term's run, term after term) into
  // PostingStorage::Columns, and points each term's list at its part. A
  // Term holds docs and tfs, offset_starts (one more entry: byte offsets
  // into offsets, the term's position varints, the last being their
  // length) and total_positions, as IndexBuilder accumulates them.
  template <typename Term>
  void GatherColumns(std::span<const Term> terms,
                     std::span<const uint32_t> frontiers);

  // ---- Packed (v5 mmap) storage ----
  // A LoadIndexMapped index owns the mapped file region and shares a
  // decoded-block cache; its posting lists are zero-copy views keyed by a
  // process-unique cache generation. A materialized index reports
  // is_packed() == false and a null cache.
  bool is_packed() const { return storage_.region != nullptr; }
  void AttachBlockCache(std::shared_ptr<BlockCache> cache,
                        uint64_t generation) {
    cache_ = std::move(cache);
    cache_generation_ = generation;
  }
  const std::shared_ptr<BlockCache>& block_cache() const { return cache_; }
  // Generation under which this load's blocks are cached; EraseGeneration
  // with it after a hot-reload swap frees the dead entries immediately.
  uint64_t cache_generation() const { return cache_generation_; }
  // True when the packed bytes are a real mmap (false: heap fallback).
  bool mapped() const { return is_packed() && storage_.region->mapped(); }

 private:
  // The table slot holding `term`, or the empty slot where it goes.
  size_t FindSlot(std::string_view term) const;
  // Re-spreads every term over `slots` slots (a power of two).
  void Rehash(size_t slots);

  // Open addressing with linear probing over terms_: each slot holds a
  // term id or kInvalidTerm. Its size is a power of two, at least twice
  // the term count.
  std::vector<TermId> table_;
  std::vector<std::string> terms_;
  std::vector<PostingList> postings_;
  std::vector<uint32_t> doc_lengths_;
  uint64_t total_words_ = 0;
  PostingStorage storage_;
  std::shared_ptr<BlockCache> cache_;
  uint64_t cache_generation_ = 0;
};

template <typename Term>
void InvertedIndex::GatherColumns(std::span<const Term> terms,
                                  std::span<const uint32_t> frontiers) {
  uint64_t postings = 0;
  uint64_t position_bytes = 0;
  for (const Term& term : terms) {
    postings += term.docs.size();
    position_bytes += term.offsets.size();
  }
  storage_ = PostingStorage::Columns(terms.size(), postings, position_bytes,
                                     frontiers.size());
  DocId* docs = storage_.docs.get();
  uint32_t* tfs = storage_.tfs.get();
  uint32_t* starts = storage_.offset_starts.get();
  uint8_t* offsets = storage_.offsets.get();
  std::ranges::copy(frontiers, storage_.frontiers.get());
  const uint32_t* run = storage_.frontiers.get();
  for (TermId t = 0; t < terms.size(); ++t) {
    const Term& term = terms[t];
    const size_t n = term.docs.size();
    const size_t blocks =
        (n + PostingList::kBlockSize - 1) / PostingList::kBlockSize;
    std::ranges::copy(term.docs, docs);
    std::ranges::copy(term.tfs, tfs);
    std::ranges::copy(term.offset_starts, starts);
    std::ranges::copy(term.offsets, offsets);
    postings_[t] = PostingList(n, term.total_positions,
                               {docs, tfs, starts, offsets},
                               Frontiers::At(run, blocks));
    docs += n;
    tfs += n;
    starts += n + 1;
    offsets += term.offsets.size();
    run += blocks + 1 + 2 * size_t{run[blocks]};
  }
}

// Incremental index construction. Documents must be added in increasing
// doc-id order (ids are assigned sequentially from 0), from one thread.
//
// The builder is a two-stage pipeline. The calling thread only interns
// each token and appends (term id, offset) to a batch of kBatchTokens
// tokens. A full batch goes to the one worker thread the builder owns,
// which inverts it into per-term postings while the caller fills the
// other batch; the caller waits only when the worker is still on the
// previous one. The worker starts at the first full batch, and Build()
// and the destructor join it, so no thread outlives either. Build()
// inverts the last partial batch itself, so a build under one batch runs
// on the calling thread alone. An exception the worker meets (an
// allocation failure) reaches the caller at its next hand-off or in
// Build(). The worker holds a pointer to the builder, which therefore can
// be neither copied nor moved.
class IndexBuilder {
 public:
  // Tokens per batch: a constant, so batching never changes a saved byte.
  static constexpr size_t kBatchTokens = size_t{1} << 18;

  IndexBuilder();
  ~IndexBuilder();

  IndexBuilder(const IndexBuilder&) = delete;
  IndexBuilder& operator=(const IndexBuilder&) = delete;

  // Adds the next document. Tokens are term texts in offset order.
  DocId AddDocument(std::span<const std::string_view> tokens);
  // Convenience for std::string token vectors.
  DocId AddDocumentStrings(const std::vector<std::string>& tokens);
  // Adds a document with explicit (strictly increasing) positions — used
  // for structure-aware composite offsets (text/structure.h). The document
  // length recorded for scoring is the token count, not the offset span.
  DocId AddDocumentPositioned(std::span<const std::string_view> tokens,
                              std::span<const Offset> offsets);

  // Finalizes and returns the index. The builder is consumed: its
  // postings are gathered into the index's columns and freed, and the
  // freed heap goes back to the operating system.
  InvertedIndex Build();

 private:
  struct Token {
    TermId term;
    Offset offset;
  };
  // Consecutive tokens of consecutive documents. A document may continue
  // from the previous batch and into the next.
  struct Batch {
    std::unique_ptr<Token[]> tokens;
    size_t size = 0;
    // The document tokens[0] belongs to.
    DocId first_doc = 0;
    // Where each document from first_doc on ends in tokens; tokens past
    // the last end belong to a document still being added.
    std::vector<uint32_t> doc_ends;
    // Terms interned when the batch was sealed: an upper bound on its ids.
    size_t term_count = 0;
  };
  // One term's postings as they accumulate.
  struct TermPostings {
    explicit TermPostings(std::pmr::memory_resource* memory)
        : docs(memory), tfs(memory), offset_starts(memory), offsets(memory) {}

    std::pmr::vector<DocId> docs;
    std::pmr::vector<uint32_t> tfs;
    // offset_starts[i] is the byte offset into `offsets` of doc i's first
    // varint. Opening a document appends its start; Build() appends the
    // end of the last.
    std::pmr::vector<uint32_t> offset_starts;
    std::pmr::vector<uint8_t> offsets;
    uint64_t total_positions = 0;
    Offset last_offset = 0;  // the latest position in the last doc
  };
  // One occurrence, as the inversion orders it.
  struct Occurrence {
    DocId doc;
    Offset offset;
  };

  // Caller stage.
  void AppendToken(TermId term, Offset offset);
  DocId EndDocument(uint32_t length);
  // Hands the filled batch to the worker (starting it the first time)
  // once it has finished the previous one, and takes the other buffer.
  void HandOff();

  // Worker stage: the worker's loop, and the inversion it and Build() run.
  void RunWorker();
  // Appends the batch's occurrences to their terms' postings, each term's
  // in (doc, offset) order: a stable counting sort by term id.
  void Invert(const Batch& batch);
  // Lets the worker finish its batch and joins it.
  void StopWorker();

  // Owned by the calling thread.
  InvertedIndex index_;
  Batch filling_;
  DocId next_doc_ = 0;

  // Owned by whichever thread inverts: the worker while it runs, then
  // the caller. Their memory comes from pool_, which maps it directly
  // rather than through malloc: glibc keeps the freed top of a thread's
  // arena resident up to a trim threshold that grows with the largest
  // mapping the process has freed, and malloc_trim leaves it there.
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::vector<TermPostings> postings_{&pool_};  // by term id
  std::pmr::vector<uint32_t> run_ends_{&pool_};      // by term id, per batch
  std::pmr::vector<Occurrence> sorted_{&pool_};      // the batch, by term

  // The hand-off between the stages.
  std::mutex mu_;
  std::condition_variable cv_;
  Batch handed_;       // the batch the worker inverts
  bool busy_ = false;  // handed_ holds a batch not yet inverted
  bool stop_ = false;  // no more batches will come
  std::exception_ptr failure_;  // what ended the worker early, if anything
  std::thread worker_;
};

}  // namespace graft::index

#endif  // GRAFT_INDEX_INVERTED_INDEX_H_
