#include "index/inverted_index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "index/varint.h"

namespace graft::index {

PostingStorage PostingStorage::Columns(uint64_t terms, uint64_t postings,
                                       uint64_t position_bytes,
                                       uint64_t frontier_words) {
  PostingStorage storage;
  storage.docs = std::make_unique_for_overwrite<DocId[]>(postings);
  storage.tfs = std::make_unique_for_overwrite<uint32_t[]>(postings);
  storage.offset_starts =
      std::make_unique_for_overwrite<uint32_t[]>(postings + terms);
  storage.offsets = std::make_unique_for_overwrite<uint8_t[]>(position_bytes);
  storage.frontiers =
      std::make_unique_for_overwrite<uint32_t[]>(frontier_words);
  return storage;
}

size_t InvertedIndex::FindSlot(std::string_view term) const {
  const size_t mask = table_.size() - 1;
  size_t slot = std::hash<std::string_view>{}(term) & mask;
  while (table_[slot] != kInvalidTerm && terms_[table_[slot]] != term) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void InvertedIndex::Rehash(size_t slots) {
  table_.assign(slots, kInvalidTerm);
  for (TermId t = 0; t < terms_.size(); ++t) {
    table_[FindSlot(terms_[t])] = t;
  }
}

void InvertedIndex::ReserveTerms(size_t terms) {
  terms_.reserve(terms);
  postings_.reserve(terms);
  const size_t slots = std::bit_ceil(std::max<size_t>(16, 2 * terms));
  if (slots > table_.size()) Rehash(slots);
}

TermId InvertedIndex::LookupTerm(std::string_view term) const {
  return table_.empty() ? kInvalidTerm : table_[FindSlot(term)];
}

TermId InvertedIndex::InternTerm(std::string_view term) {
  if (2 * (terms_.size() + 1) > table_.size()) {
    Rehash(std::max<size_t>(16, 2 * table_.size()));
  }
  const size_t slot = FindSlot(term);
  if (table_[slot] == kInvalidTerm) {
    table_[slot] = static_cast<TermId>(terms_.size());
    terms_.emplace_back(term);
    postings_.emplace_back();
  }
  return table_[slot];
}

uint32_t InvertedIndex::TermFreqInDoc(TermId term, DocId doc) const {
  PostingCursor cursor(&postings_[term]);
  cursor.SkipTo(doc);
  return !cursor.AtEnd() && cursor.doc() == doc ? cursor.tf() : 0;
}

IndexBuilder::IndexBuilder() = default;

// A term's first occurrence in the current document opens its posting.
// Positions are delta-encoded: the first absolute, then gaps.
void IndexBuilder::AccumulateOffset(TermId term, Offset offset) {
  if (term == postings_.size()) {
    postings_.emplace_back().offset_starts.push_back(0);
  }
  TermPostings& postings = postings_[term];
  Offset previous = 0;
  if (postings.docs.empty() || postings.docs.back() != next_doc_) {
    postings.docs.push_back(next_doc_);
    postings.tfs.push_back(0);
    doc_terms_.push_back(term);
  } else {
    assert(offset > postings.last_offset);
    previous = postings.last_offset;
  }
  PutVarint32(&postings.offsets, offset - previous);
  postings.last_offset = offset;
  ++postings.tfs.back();
  ++postings.total_positions;
}

DocId IndexBuilder::FlushDocument(uint32_t length) {
  for (const TermId term : doc_terms_) {
    TermPostings& postings = postings_[term];
    // The u32 starts address a 4 GiB blob, the v5 block header's limit.
    assert(postings.offsets.size() <= UINT32_MAX);
    postings.offset_starts.push_back(
        static_cast<uint32_t>(postings.offsets.size()));
  }
  doc_terms_.clear();
  index_.AppendDocLength(length);
  return next_doc_++;
}

DocId IndexBuilder::AddDocument(std::span<const std::string_view> tokens) {
  doc_terms_.reserve(tokens.size());
  for (size_t offset = 0; offset < tokens.size(); ++offset) {
    AccumulateOffset(index_.InternTerm(tokens[offset]),
                     static_cast<Offset>(offset));
  }
  return FlushDocument(static_cast<uint32_t>(tokens.size()));
}

DocId IndexBuilder::AddDocumentPositioned(
    std::span<const std::string_view> tokens,
    std::span<const Offset> offsets) {
  doc_terms_.reserve(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    AccumulateOffset(index_.InternTerm(tokens[i]), offsets[i]);
  }
  return FlushDocument(static_cast<uint32_t>(tokens.size()));
}

DocId IndexBuilder::AddDocumentStrings(const std::vector<std::string>& tokens) {
  std::vector<std::string_view> views;
  views.reserve(tokens.size());
  for (const std::string& token : tokens) {
    views.emplace_back(token);
  }
  return AddDocument(views);
}

InvertedIndex IndexBuilder::Build() {
  {
    std::vector<uint32_t> frontiers;
    for (const TermPostings& term : postings_) {
      AppendFrontiers(term.docs, term.tfs, index_.doc_lengths(), &frontiers);
    }
    index_.GatherColumns(std::span<const TermPostings>(postings_), frontiers);
  }
  postings_ = std::vector<TermPostings>();
  doc_terms_ = std::vector<TermId>();
#ifdef __GLIBC__
  // glibc keeps freed pages resident unless they top the heap; the
  // accumulators just freed are most of a build's heap, so return them.
  malloc_trim(0);
#endif
  return std::move(index_);
}

}  // namespace graft::index
