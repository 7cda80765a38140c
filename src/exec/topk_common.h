// Machinery of the top-k operator, MaxScoreTopK (exec/maxscore_topk.h):
// the pure-keyword query-shape probe, the exact column/document scorer,
// and the running top-k list.
//
// The scorer reproduces the full engine's α/⊘/⊚/⊕/ω pipeline bit-for-bit:
// a column's score is α at the first offset, ⊗-scaled by the term
// frequency, with tf == 0 mapping to the ∅ cell; the document score folds
// the columns in keyword order with ⊘/⊚ and applies ω under the real
// document context. Every top-k run scores through this one class, so only
// the *set of documents scored* may differ from the full ranking — never
// a score.

#ifndef GRAFT_EXEC_TOPK_COMMON_H_
#define GRAFT_EXEC_TOPK_COMMON_H_

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "index/stats.h"
#include "ma/match_table.h"
#include "mcalc/ast.h"
#include "sa/scoring_scheme.h"

namespace graft::exec::topk {

// Query shape probe: And(keywords...) or Or(keywords...) or one keyword
// (a single keyword processes as a conjunction).
enum class Shape { kUnsupported, kConjunction, kDisjunction };

inline Shape QueryShape(const mcalc::Query& query,
                        std::vector<const mcalc::Node*>* keywords) {
  const mcalc::Node& root = *query.root;
  if (root.kind == mcalc::NodeKind::kKeyword) {
    keywords->push_back(&root);
    return Shape::kConjunction;
  }
  if (root.kind != mcalc::NodeKind::kAnd &&
      root.kind != mcalc::NodeKind::kOr) {
    return Shape::kUnsupported;
  }
  for (const mcalc::NodePtr& child : root.children) {
    if (child->kind != mcalc::NodeKind::kKeyword) {
      return Shape::kUnsupported;
    }
    keywords->push_back(child.get());
  }
  return root.kind == mcalc::NodeKind::kAnd ? Shape::kConjunction
                                            : Shape::kDisjunction;
}

// Scores the columns of one query: column i is the query's i-th keyword,
// `terms[i]` (kInvalidTerm for a keyword absent from the index).
// Collection-level statistics — N, the average length and each column's
// df — are constants of the query, resolved once at construction, so a
// scored document or a ceiling probe pays no statistics lookup beyond its
// own doc length (under an overlay each df lookup is a term-text hash
// probe).
class ColumnScorer {
 public:
  ColumnScorer(const index::StatsView* view, const sa::ScoringScheme* scheme,
               Shape shape, std::span<const TermId> terms)
      : view_(view), scheme_(scheme), shape_(shape) {
    query_ctx_.num_columns = static_cast<uint32_t>(terms.size());
    generic_.length = 1;
    generic_.collection_size = view_->CollectionSize();
    generic_.avg_doc_length = view_->AverageDocLength();
    columns_.reserve(terms.size());
    for (const TermId term : terms) {
      sa::ColumnContext col;
      col.term = term;
      col.doc_freq = term == kInvalidTerm ? 0 : view_->DocFreq(term);
      columns_.push_back(col);
    }
  }

  // A document context of length 1 and no concrete document: the context
  // of score ceilings. Length 1 maximizes a bounded α, and ω is monotone
  // in the aggregate (and ignores the document) for the rank-eligible
  // schemes.
  const sa::DocContext& Generic() const { return generic_; }

  // The context of column `i` with `tf` occurrences in the document.
  sa::ColumnContext Column(size_t i, uint32_t tf) const {
    sa::ColumnContext col = columns_[i];
    col.tf_in_doc = tf;
    return col;
  }

  // The column score: the ⊕-fold of the tf equal alternates = ⊗.
  sa::InternalScore ColumnScore(size_t i, uint32_t tf,
                                const sa::DocContext& dctx) const {
    const sa::ColumnContext col = Column(i, tf);
    if (tf == 0) {
      return scheme_->Init(dctx, col, kEmptyOffset);
    }
    const sa::InternalScore unit = scheme_->Init(dctx, col, /*offset=*/0);
    return tf <= 1 ? unit : scheme_->Scale(unit, tf);
  }

  // ⊘ (conjunction) or ⊚ (disjunction), per the query's shape.
  sa::InternalScore Combine(const sa::InternalScore& acc,
                            const sa::InternalScore& column) const {
    return shape_ == Shape::kConjunction ? scheme_->Conj(acc, column)
                                         : scheme_->Disj(acc, column);
  }

  // The document's final score: its columns (column i occurring tfs[i]
  // times) folded in keyword order, then ω.
  double Score(DocId doc, std::span<const uint32_t> tfs) const {
    const sa::DocContext dctx = DocCtx(doc);
    sa::InternalScore acc = ColumnScore(0, tfs[0], dctx);
    for (size_t i = 1; i < tfs.size(); ++i) {
      acc = Combine(acc, ColumnScore(i, tfs[i], dctx));
    }
    return scheme_->Finalize(dctx, query_ctx_, acc);
  }

  // ω under the generic context: the final-score bound of an aggregate
  // ceiling.
  double FinalizeGeneric(const sa::InternalScore& acc) const {
    return scheme_->Finalize(generic_, query_ctx_, acc);
  }

 private:
  sa::DocContext DocCtx(DocId doc) const {
    sa::DocContext ctx = generic_;
    ctx.doc = doc;
    ctx.length = view_->DocLength(doc);
    return ctx;
  }

  const index::StatsView* view_;
  const sa::ScoringScheme* scheme_;
  Shape shape_;
  sa::QueryContext query_ctx_;
  sa::DocContext generic_;
  std::vector<sa::ColumnContext> columns_;  // tf_in_doc unset
};

// The running top-k: at most k documents in ma::RankedBefore order.
class TopList {
 public:
  explicit TopList(size_t k) : k_(k) {}  // k > 0

  bool full() const { return docs_.size() >= k_; }

  // The k-th best score so far; -∞ while fewer than k are kept.
  double Worst() const {
    return full() ? docs_.back().score
                  : -std::numeric_limits<double>::infinity();
  }

  // Inserts a candidate and evicts the (k+1)-th; returns the heap
  // operations spent (insert, plus eviction).
  uint64_t Offer(DocId doc, double score) {
    const ma::ScoredDoc candidate{doc, score};
    const auto position = std::upper_bound(docs_.begin(), docs_.end(),
                                           candidate, ma::RankedBefore);
    docs_.insert(position, candidate);
    if (docs_.size() <= k_) return 1;
    docs_.pop_back();
    return 2;
  }

  std::vector<ma::ScoredDoc> Take() && { return std::move(docs_); }

 private:
  size_t k_;
  std::vector<ma::ScoredDoc> docs_;
};

}  // namespace graft::exec::topk

#endif  // GRAFT_EXEC_TOPK_COMMON_H_
