// The term-position inverted index plus collection statistics: the physical
// substrate beneath every GRAFT plan leaf.

#ifndef GRAFT_INDEX_INVERTED_INDEX_H_
#define GRAFT_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mmap_region.h"
#include "common/status.h"
#include "index/block_cache.h"
#include "index/posting_list.h"
#include "index/types.h"

namespace graft::index {

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

  // ---- Packed (v5 mmap) storage ----
  // A LoadIndexMapped index owns the mapped file region and shares a
  // decoded-block cache; its posting lists are zero-copy views keyed by a
  // process-unique cache generation. A materialized index reports
  // is_packed() == false and a null cache.
  bool is_packed() const { return region_ != nullptr; }
  void AttachPackedStorage(std::shared_ptr<common::MmapRegion> region,
                           std::shared_ptr<BlockCache> cache,
                           uint64_t generation) {
    region_ = std::move(region);
    cache_ = std::move(cache);
    cache_generation_ = generation;
  }
  const std::shared_ptr<BlockCache>& block_cache() const { return cache_; }
  // Generation under which this load's blocks are cached; EraseGeneration
  // with it after a hot-reload swap frees the dead entries immediately.
  uint64_t cache_generation() const { return cache_generation_; }
  // True when the packed bytes are a real mmap (false: heap fallback).
  bool mapped() const { return region_ != nullptr && region_->mapped(); }

 private:
  std::unordered_map<std::string, TermId> dictionary_;
  std::vector<std::string> terms_;
  std::vector<PostingList> postings_;
  std::vector<uint32_t> doc_lengths_;
  uint64_t total_words_ = 0;
  std::shared_ptr<common::MmapRegion> region_;
  std::shared_ptr<BlockCache> cache_;
  uint64_t cache_generation_ = 0;
};

// Incremental index construction. Documents must be added in increasing
// doc-id order (ids are assigned sequentially from 0).
class IndexBuilder {
 public:
  IndexBuilder();

  // Adds the next document. Tokens are term texts in offset order.
  DocId AddDocument(std::span<const std::string_view> tokens);
  // Convenience for std::string token vectors.
  DocId AddDocumentStrings(const std::vector<std::string>& tokens);
  // Adds a document with explicit (strictly increasing) positions — used
  // for structure-aware composite offsets (text/structure.h). The document
  // length recorded for scoring is the token count, not the offset span.
  DocId AddDocumentPositioned(std::span<const std::string_view> tokens,
                              std::span<const Offset> offsets);

  // Finalizes and returns the index. The builder is consumed.
  InvertedIndex Build();

 private:
  void AccumulateOffset(TermId term, Offset offset);
  DocId FlushDocument(uint32_t length);

  InvertedIndex index_;
  DocId next_doc_ = 0;
  // Scratch: per-term offsets for the current document. Entries persist
  // across documents (vectors are cleared, not erased) so steady-state
  // builds neither rehash the map nor reallocate offset storage.
  std::unordered_map<TermId, std::vector<Offset>> doc_offsets_;
  std::vector<TermId> doc_terms_;
};

}  // namespace graft::index

#endif  // GRAFT_INDEX_INVERTED_INDEX_H_
