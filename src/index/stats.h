// Statistics access for scoring, with an overlay mechanism.
//
// Scoring schemes consume collection statistics (Figure 1 of the paper:
// #Docs, #InDoc, document length, collection size). StatsView resolves each
// statistic against an optional StatsOverlay first and falls back to the
// live index. The overlay has two uses:
//
//   * the router's pinned global statistics (server/pinned_stats.h): every
//     routed shard query carries the whole corpus' N, total words and the
//     query terms' df/cf, so a shard scores bit-identically to one process
//     over the whole corpus;
//   * tests that inject the paper's exact Wikipedia statistics (e.g.
//     collectionSize = 4,638,535) around a tiny in-memory index to
//     reproduce the worked examples digit-for-digit.
//
// Overrides come in two kinds. Collection-level ones (collection size,
// total words, per-term df/cf) are constants of the query: every fast path
// that reads per-document statistics straight from the postings — tf from
// a cursor, a block ceiling from stored (tf, doc length) frontier points —
// stays exact under them, because those paths still resolve the
// collection-level statistics through the same StatsView. The
// per-document one (SetDocLength; tests only) changes what a stored
// frontier point means, so block-max pruning stands down:
// overrides_documents() is the predicate it tests. In-document term
// frequencies are never overridden; every plan reads them from the
// postings.

#ifndef GRAFT_INDEX_STATS_H_
#define GRAFT_INDEX_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "index/inverted_index.h"
#include "index/types.h"

namespace graft::index {

class StatsOverlay {
 public:
  StatsOverlay() = default;

  void SetCollectionSize(uint64_t size) { collection_size_ = size; }
  void SetTotalWords(uint64_t words) { total_words_ = words; }
  void SetDocLength(DocId doc, uint32_t length) { doc_length_[doc] = length; }
  void SetDocFreq(const std::string& term, uint64_t df) {
    doc_freq_[term] = df;
  }
  void SetCollectionFreq(const std::string& term, uint64_t cf) {
    collection_freq_[term] = cf;
  }

  // True when a document length is overridden: paths that read stored
  // (tf, doc length) frontier points must not serve.
  bool overrides_documents() const { return !doc_length_.empty(); }

  std::optional<uint64_t> collection_size() const { return collection_size_; }
  std::optional<uint64_t> total_words() const { return total_words_; }
  std::optional<uint32_t> doc_length(DocId doc) const {
    const auto it = doc_length_.find(doc);
    if (it == doc_length_.end()) return std::nullopt;
    return it->second;
  }
  std::optional<uint64_t> doc_freq(const std::string& term) const {
    const auto it = doc_freq_.find(term);
    if (it == doc_freq_.end()) return std::nullopt;
    return it->second;
  }
  std::optional<uint64_t> collection_freq(const std::string& term) const {
    const auto it = collection_freq_.find(term);
    if (it == collection_freq_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::optional<uint64_t> collection_size_;
  std::optional<uint64_t> total_words_;
  std::unordered_map<DocId, uint32_t> doc_length_;
  std::unordered_map<std::string, uint64_t> doc_freq_;
  std::unordered_map<std::string, uint64_t> collection_freq_;
};

// Read-only statistics facade handed to scoring schemes. Cheap to copy.
// Resolution order per statistic: overlay (tests, and the router's pinned
// global stats) → the live index. A segment of a SegmentedIndex is a doc
// range of the same index, so it reads the whole corpus' statistics here
// without any per-segment table.
class StatsView {
 public:
  explicit StatsView(const InvertedIndex* index,
                     const StatsOverlay* overlay = nullptr)
      : index_(index), overlay_(overlay) {}

  uint64_t CollectionSize() const {
    if (overlay_ != nullptr) {
      if (const auto v = overlay_->collection_size(); v.has_value()) {
        return *v;
      }
    }
    return index_->doc_count();
  }

  uint32_t DocLength(DocId doc) const {
    if (overlay_ != nullptr) {
      if (const auto v = overlay_->doc_length(doc); v.has_value()) {
        return *v;
      }
    }
    return index_->doc_length(doc);
  }

  double AverageDocLength() const {
    // Overlay total_words (with an overlay collection size) pins the
    // average exactly the way the index computes its own: same division,
    // same operand values ⇒ bit-identical doubles on every shard.
    if (overlay_ != nullptr) {
      if (const auto words = overlay_->total_words(); words.has_value()) {
        const uint64_t docs = CollectionSize();
        return docs == 0 ? 0.0
                         : static_cast<double>(*words) /
                               static_cast<double>(docs);
      }
    }
    return index_->average_doc_length();
  }

  uint64_t DocFreq(TermId term) const {
    if (overlay_ != nullptr) {
      if (const auto v = overlay_->doc_freq(index_->TermText(term));
          v.has_value()) {
        return *v;
      }
    }
    return index_->DocFreq(term);
  }

  uint64_t CollectionFreq(TermId term) const {
    if (overlay_ != nullptr) {
      if (const auto v = overlay_->collection_freq(index_->TermText(term));
          v.has_value()) {
        return *v;
      }
    }
    return index_->CollectionFreq(term);
  }

  const InvertedIndex& index() const { return *index_; }
  const StatsOverlay* overlay() const { return overlay_; }
  bool overrides_documents() const {
    return overlay_ != nullptr && overlay_->overrides_documents();
  }

 private:
  const InvertedIndex* index_;
  const StatsOverlay* overlay_;
};

}  // namespace graft::index

#endif  // GRAFT_INDEX_STATS_H_
