#include "index/inverted_index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <exception>
#include <functional>
#include <new>

#include <sys/mman.h>

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

namespace {

// Whole pages from mmap, returned with munmap. Pages are aligned beyond
// anything the pool asks for.
class MappedMemory final : public std::pmr::memory_resource {
  void* do_allocate(size_t bytes, size_t /*alignment*/) override {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
  }
  void do_deallocate(void* p, size_t bytes, size_t /*alignment*/) override {
    ::munmap(p, bytes);
  }
  bool do_is_equal(const memory_resource& other) const noexcept override {
    return this == &other;
  }
};

std::pmr::memory_resource* MappedMemoryResource() {
  static MappedMemory memory;
  return &memory;
}

}  // namespace

IndexBuilder::IndexBuilder() : pool_(MappedMemoryResource()) {
  filling_.tokens = std::make_unique_for_overwrite<Token[]>(kBatchTokens);
}

IndexBuilder::~IndexBuilder() { StopWorker(); }

void IndexBuilder::AppendToken(TermId term, Offset offset) {
  if (filling_.size == kBatchTokens) HandOff();
  filling_.tokens[filling_.size++] = {term, offset};
}

DocId IndexBuilder::EndDocument(uint32_t length) {
  filling_.doc_ends.push_back(static_cast<uint32_t>(filling_.size));
  index_.AppendDocLength(length);
  return next_doc_++;
}

void IndexBuilder::HandOff() {
  filling_.term_count = index_.term_count();
  if (!worker_.joinable()) {
    worker_ = std::thread(&IndexBuilder::RunWorker, this);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !busy_; });
    if (failure_) std::rethrow_exception(failure_);
    std::swap(filling_, handed_);
    busy_ = true;
  }
  cv_.notify_one();
  if (filling_.tokens == nullptr) {
    filling_.tokens = std::make_unique_for_overwrite<Token[]>(kBatchTokens);
  }
  filling_.size = 0;
  filling_.first_doc = next_doc_;
  filling_.doc_ends.clear();
}

// The caller waits on !busy_ and the worker on busy_ || stop_, so at most
// one of them waits at a time and notify_one reaches it. A failed batch
// (an allocation the system refused) ends the worker; the caller rethrows
// it at its next hand-off or in Build().
void IndexBuilder::RunWorker() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return busy_ || stop_; });
    if (!busy_) return;
    lock.unlock();
    std::exception_ptr failure;
    try {
      Invert(handed_);
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    busy_ = false;
    cv_.notify_one();
    if (failure) {
      failure_ = failure;
      return;
    }
  }
}

void IndexBuilder::StopWorker() {
  if (!worker_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  worker_.join();
}

// A term's first occurrence in a document opens its posting. Positions
// are delta-encoded: the first absolute, then gaps.
void IndexBuilder::Invert(const Batch& batch) {
  while (postings_.size() < batch.term_count) postings_.emplace_back(&pool_);
  // run_ends_[t] counts term t's occurrences, then becomes where its run
  // begins, and after the scatter where it ends.
  run_ends_.assign(batch.term_count, 0);
  for (size_t i = 0; i < batch.size; ++i) ++run_ends_[batch.tokens[i].term];
  uint32_t begin = 0;
  for (uint32_t& end : run_ends_) {
    const uint32_t count = end;
    end = begin;
    begin += count;
  }
  // Scattering in token order keeps each run in (doc, offset) order.
  sorted_.resize(batch.size);
  DocId doc = batch.first_doc;
  for (size_t d = 0, i = 0; d <= batch.doc_ends.size(); ++d, ++doc) {
    const size_t end =
        d < batch.doc_ends.size() ? batch.doc_ends[d] : batch.size;
    for (; i < end; ++i) {
      const Token& token = batch.tokens[i];
      sorted_[run_ends_[token.term]++] = {doc, token.offset};
    }
  }
  size_t run_begin = 0;
  for (TermId t = 0; t < batch.term_count; ++t) {
    const size_t run_end = run_ends_[t];
    if (run_begin == run_end) continue;
    TermPostings& term = postings_[t];
    for (size_t k = run_begin; k < run_end; ++k) {
      const Occurrence occurrence = sorted_[k];
      Offset previous = 0;
      if (term.docs.empty() || term.docs.back() != occurrence.doc) {
        // The u32 starts address a 4 GiB blob, the v5 block header's limit.
        assert(term.offsets.size() <= UINT32_MAX);
        term.offset_starts.push_back(
            static_cast<uint32_t>(term.offsets.size()));
        term.docs.push_back(occurrence.doc);
        term.tfs.push_back(0);
      } else {
        assert(occurrence.offset > term.last_offset);
        previous = term.last_offset;
      }
      PutVarint32(&term.offsets, occurrence.offset - previous);
      term.last_offset = occurrence.offset;
      ++term.tfs.back();
    }
    term.total_positions += run_end - run_begin;
    run_begin = run_end;
  }
}

DocId IndexBuilder::AddDocument(std::span<const std::string_view> tokens) {
  for (size_t offset = 0; offset < tokens.size(); ++offset) {
    AppendToken(index_.InternTerm(tokens[offset]),
                static_cast<Offset>(offset));
  }
  return EndDocument(static_cast<uint32_t>(tokens.size()));
}

DocId IndexBuilder::AddDocumentPositioned(
    std::span<const std::string_view> tokens,
    std::span<const Offset> offsets) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    AppendToken(index_.InternTerm(tokens[i]), offsets[i]);
  }
  return EndDocument(static_cast<uint32_t>(tokens.size()));
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
  StopWorker();
  if (failure_) std::rethrow_exception(failure_);
  filling_.term_count = index_.term_count();
  Invert(filling_);
  {
    std::vector<uint32_t> frontiers;
    for (TermPostings& term : postings_) {
      term.offset_starts.push_back(static_cast<uint32_t>(term.offsets.size()));
      AppendFrontiers(term.docs, term.tfs, index_.doc_lengths(), &frontiers);
    }
    index_.GatherColumns(std::span<const TermPostings>(postings_), frontiers);
  }
  postings_ = decltype(postings_)(&pool_);
  run_ends_ = decltype(run_ends_)(&pool_);
  sorted_ = decltype(sorted_)(&pool_);
  pool_.release();
  filling_ = Batch();
  handed_ = Batch();
#ifdef __GLIBC__
  // glibc keeps freed pages resident unless they top the heap; the
  // accumulators just freed are most of a build's heap, so return them.
  malloc_trim(0);
#endif
  return std::move(index_);
}

}  // namespace graft::index
