#include "index/inverted_index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>

#include "index/varint.h"

namespace graft::index {

void TermPostings::AddDocument(DocId doc,
                               std::span<const Offset> doc_offsets) {
  assert(!doc_offsets.empty());
  assert(docs.empty() || doc > docs.back());
  if (offset_starts.empty()) offset_starts.push_back(0);
  docs.push_back(doc);
  tfs.push_back(static_cast<uint32_t>(doc_offsets.size()));
  // Delta-encode: first position absolute, then gaps.
  Offset previous = 0;
  for (size_t i = 0; i < doc_offsets.size(); ++i) {
    assert(i == 0 || doc_offsets[i] > previous);
    PutVarint32(&offsets, doc_offsets[i] - previous);
    previous = doc_offsets[i];
  }
  // The u32 starts address a 4 GiB blob, the v5 block header's limit.
  assert(offsets.size() <= UINT32_MAX);
  offset_starts.push_back(static_cast<uint32_t>(offsets.size()));
  total_positions += doc_offsets.size();
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

// A term's first occurrence in the current document is detected by its
// (cleared) offset vector being empty.
void IndexBuilder::AccumulateOffset(TermId term, Offset offset) {
  if (term == doc_offsets_.size()) {
    doc_offsets_.emplace_back().reserve(4);
    postings_.emplace_back();
  }
  std::vector<Offset>& offsets = doc_offsets_[term];
  if (offsets.empty()) doc_terms_.push_back(term);
  offsets.push_back(offset);
}

DocId IndexBuilder::FlushDocument(uint32_t length) {
  const DocId doc = next_doc_++;
  for (const TermId term : doc_terms_) {
    std::vector<Offset>& offsets = doc_offsets_[term];
    postings_[term].AddDocument(doc, offsets);
    offsets.clear();  // keep capacity for the next document
  }
  doc_terms_.clear();
  index_.AppendDocLength(length);
  return doc;
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

// The lists view the builder's own arrays; only the frontiers, computed
// here, are gathered into one column.
InvertedIndex IndexBuilder::Build() {
  const size_t terms = postings_.size();
  std::vector<uint32_t> frontiers;
  std::vector<size_t> frontier_at(terms);
  for (TermId t = 0; t < terms; ++t) {
    frontier_at[t] = frontiers.size();
    AppendFrontiers(postings_[t].docs, postings_[t].tfs, index_.doc_lengths(),
                    &frontiers);
  }
  PostingStorage storage;
  storage.frontiers = std::make_unique_for_overwrite<uint32_t[]>(
      frontiers.size());
  std::copy(frontiers.begin(), frontiers.end(), storage.frontiers.get());
  for (TermId t = 0; t < terms; ++t) {
    const TermPostings& built = postings_[t];
    const size_t n = built.docs.size();
    *index_.mutable_postings(t) = PostingList(
        n, built.total_positions,
        {built.docs.data(), built.tfs.data(), built.offset_starts.data(),
         built.offsets.data()},
        Frontiers::At(storage.frontiers.get() + frontier_at[t],
                      (n + PostingList::kBlockSize - 1) /
                          PostingList::kBlockSize));
  }
  storage.built = std::move(postings_);
  index_.AdoptStorage(std::move(storage));
  return std::move(index_);
}

}  // namespace graft::index
