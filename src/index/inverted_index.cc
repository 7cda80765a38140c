#include "index/inverted_index.h"

#include <algorithm>

namespace graft::index {

TermId InvertedIndex::LookupTerm(std::string_view term) const {
  // C++20 heterogeneous lookup on unordered_map needs a transparent hash;
  // the dictionary is small relative to postings so the temporary string is
  // acceptable and keeps the container simple.
  const auto it = dictionary_.find(std::string(term));
  return it == dictionary_.end() ? kInvalidTerm : it->second;
}

TermId InvertedIndex::InternTerm(std::string_view term) {
  const auto [it, inserted] =
      dictionary_.try_emplace(std::string(term), 0);
  if (inserted) {
    it->second = static_cast<TermId>(terms_.size());
    terms_.push_back(it->first);
    postings_.emplace_back();
  }
  return it->second;
}

uint32_t InvertedIndex::TermFreqInDoc(TermId term, DocId doc) const {
  PostingCursor cursor(&postings_[term]);
  cursor.SkipTo(doc);
  return !cursor.AtEnd() && cursor.doc() == doc ? cursor.tf() : 0;
}

IndexBuilder::IndexBuilder() = default;

// The doc_offsets_ scratch map persists across documents: entries are
// cleared (vectors keep their capacity) rather than erased, so the hot
// build loop neither rehashes the map nor reallocates offset vectors once
// the vocabulary stabilizes. A term's first occurrence in the current
// document is detected by its (cleared) vector being empty.
void IndexBuilder::AccumulateOffset(TermId term, Offset offset) {
  auto [it, inserted] = doc_offsets_.try_emplace(term);
  if (inserted || it->second.empty()) {
    doc_terms_.push_back(term);
    if (inserted) {
      it->second.reserve(4);
    }
  }
  it->second.push_back(offset);
}

DocId IndexBuilder::FlushDocument(uint32_t length) {
  const DocId doc = next_doc_++;
  for (const TermId term : doc_terms_) {
    std::vector<Offset>& offsets = doc_offsets_.find(term)->second;
    index_.mutable_postings(term)->AddDocument(doc, offsets);
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

InvertedIndex IndexBuilder::Build() {
  for (TermId t = 0; t < index_.term_count(); ++t) {
    index_.mutable_postings(t)->BuildBlockMax(index_.doc_lengths());
  }
  return std::move(index_);
}

}  // namespace graft::index
