#include "exec/rank_join.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "core/optimization_gate.h"

namespace graft::exec {

namespace {

// Query shape probe: And(keywords...) or Or(keywords...) or one keyword.
enum class Shape { kUnsupported, kConjunction, kDisjunction };

Shape QueryShape(const mcalc::Query& query,
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

}  // namespace

bool TopKRankEngine::Supports(const mcalc::Query& query,
                              const sa::ScoringScheme& scheme) {
  std::vector<const mcalc::Node*> keywords;
  const Shape shape = QueryShape(query, &keywords);
  if (shape == Shape::kUnsupported || keywords.empty()) {
    return false;
  }
  const core::Optimization opt = shape == Shape::kConjunction
                                     ? core::Optimization::kRankJoin
                                     : core::Optimization::kRankUnion;
  if (!core::IsOptimizationValid(opt, scheme.properties())) {
    return false;
  }
  // Implementation constraint on top of the Table-1 gate: this TA-style
  // engine bounds unseen documents with per-column stream tails, which is
  // exact only when ⊕ over a column's equal alternates is idempotent
  // (AnySum, Lucene). Schemes whose ⊕ accumulates multiplicities
  // (Join-Normalized, MeanSum) admit rank joins in principle but need
  // multiplicity-aware bounds this implementation does not provide.
  return scheme.properties().alt.idempotent;
}

StatusOr<std::vector<ma::ScoredDoc>> TopKRankEngine::TopK(
    const mcalc::Query& query, size_t k) {
  std::vector<const mcalc::Node*> keywords;
  const Shape shape = QueryShape(query, &keywords);
  if (shape == Shape::kUnsupported) {
    return Status::InvalidArgument(
        "rank processing supports only pure keyword conjunctions or "
        "disjunctions");
  }
  if (!Supports(query, *scheme_)) {
    return Status::FailedPrecondition(
        "scheme properties do not admit rank-join/rank-union (Table 1)");
  }
  stats_ = RankStats();

  const index::InvertedIndex& index = stats_view_.index();
  const size_t n = keywords.size();
  sa::QueryContext query_ctx;
  query_ctx.num_columns = static_cast<uint32_t>(n);

  struct Input {
    TermId term = kInvalidTerm;
    const std::vector<std::pair<DocId, double>>* entries = nullptr;
    const std::unordered_map<DocId, uint32_t>* tf = nullptr;
    size_t next = 0;

    bool empty() const { return entries == nullptr || entries->empty(); }
    size_t size() const { return entries == nullptr ? 0 : entries->size(); }
  };

  const auto doc_context = [this](DocId doc) {
    sa::DocContext ctx;
    ctx.doc = doc;
    ctx.length = stats_view_.DocLength(doc);
    ctx.collection_size = stats_view_.CollectionSize();
    ctx.avg_doc_length = stats_view_.AverageDocLength();
    return ctx;
  };
  // The column score: the ⊕-fold of the tf equal alternates = ⊗.
  const auto column_score_tf = [&](TermId term, uint32_t tf, DocId doc) {
    sa::ColumnContext col;
    col.term = term;
    col.doc_freq = term == kInvalidTerm ? 0 : stats_view_.DocFreq(term);
    col.tf_in_doc = tf;
    const sa::DocContext dctx = doc_context(doc);
    if (tf == 0) {
      return scheme_->Init(dctx, col, kEmptyOffset);
    }
    const sa::InternalScore unit = scheme_->Init(dctx, col, /*offset=*/0);
    return tf <= 1 ? unit : scheme_->Scale(unit, tf);
  };
  const auto column_score = [&](TermId term, DocId doc) {
    const uint32_t tf =
        term == kInvalidTerm ? 0 : stats_view_.TermFreqInDoc(term, doc);
    return column_score_tf(term, tf, doc);
  };

  // Resolve the score-ordered streams. A production system keeps these as
  // impact-ordered postings; here they are built once per term and cached
  // on the engine, so repeated queries pay only for consumption.
  std::vector<Input> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    inputs[i].term = index.LookupTerm(keywords[i]->keyword);
    if (inputs[i].term == kInvalidTerm) {
      if (shape == Shape::kConjunction) {
        return std::vector<ma::ScoredDoc>{};  // term absent: no matches
      }
      continue;
    }
    auto [it, inserted] = stream_cache_.try_emplace(inputs[i].term);
    if (inserted) {
      ++stats_.streams_built;
      const index::PostingList& list = index.postings(inputs[i].term);
      const auto [first, last] = list.Bounds(range_);
      it->second.entries.reserve(last - first);
      it->second.tf.reserve(last - first);
      for (size_t p = first; p < last; ++p) {
        const DocId doc = list.doc_at(p);
        const uint32_t tf = list.tf_at(p);
        it->second.tf.emplace(doc, tf);
        it->second.entries.emplace_back(
            doc, column_score_tf(inputs[i].term, tf, doc).a);
      }
      std::sort(it->second.entries.begin(), it->second.entries.end(),
                [](const std::pair<DocId, double>& a,
                   const std::pair<DocId, double>& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
    }
    inputs[i].entries = &it->second.entries;
    inputs[i].tf = &it->second.tf;
    stats_.total_candidates += it->second.entries.size();
  }

  // Combines the per-column scores of a document into its final score.
  // Random access resolves tf through the cached per-term maps: O(1).
  const auto full_score = [&](DocId doc, bool* matches) {
    *matches = true;
    sa::InternalScore acc;
    bool first = true;
    for (size_t i = 0; i < n; ++i) {
      uint32_t tf = 0;
      if (inputs[i].tf != nullptr) {
        const auto it = inputs[i].tf->find(doc);
        tf = it == inputs[i].tf->end() ? 0 : it->second;
      }
      if (shape == Shape::kConjunction && tf == 0) {
        *matches = false;
        return 0.0;
      }
      sa::InternalScore column = column_score_tf(inputs[i].term, tf, doc);
      if (first) {
        acc = std::move(column);
        first = false;
      } else {
        acc = shape == Shape::kConjunction ? scheme_->Conj(acc, column)
                                           : scheme_->Disj(acc, column);
      }
    }
    return scheme_->Finalize(doc_context(doc), query_ctx, acc);
  };

  // Threshold-algorithm loop: round-robin pulls in score order; each new
  // document is completed by random access; stop when the k-th best result
  // dominates the threshold assembled from the streams' tails.
  std::vector<ma::ScoredDoc> top;
  std::unordered_set<DocId> seen;
  const auto worst_kept = [&]() {
    return top.size() < k ? -std::numeric_limits<double>::infinity()
                          : top.back().score;
  };
  const auto consider = [&](DocId doc) {
    if (!seen.insert(doc).second) {
      return;
    }
    bool matches = false;
    const double score = full_score(doc, &matches);
    ++stats_.candidates_scored;
    if (!matches) {
      return;
    }
    ma::ScoredDoc candidate{doc, score};
    const auto position = std::upper_bound(
        top.begin(), top.end(), candidate,
        [](const ma::ScoredDoc& a, const ma::ScoredDoc& b) {
          if (a.score != b.score) return a.score > b.score;
          return a.doc < b.doc;
        });
    top.insert(position, candidate);
    ++stats_.heap_ops;
    if (top.size() > k) {
      top.pop_back();
      ++stats_.heap_ops;
    }
  };

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < n; ++i) {
      Input& input = inputs[i];
      if (input.next >= input.size()) {
        continue;
      }
      const DocId pulled_doc = (*input.entries)[input.next++].first;
      ++stats_.entries_pulled;
      progressed = true;
      consider(pulled_doc);
    }
    if (!progressed) {
      break;
    }
    // Threshold: the best score any unseen document could still reach.
    // Conjunction: every column of an unseen doc is bounded by its
    // stream's tail value; disjunction likewise. Exhausted streams bound
    // by their final (smallest) value or by an ∅-column for disjunction.
    sa::InternalScore bound;
    bool first = true;
    bool bound_valid = true;
    for (size_t i = 0; i < n; ++i) {
      const Input& input = inputs[i];
      sa::InternalScore tail;
      if (input.empty()) {
        if (shape == Shape::kConjunction) {
          bound_valid = false;
          break;
        }
        tail = sa::InternalScore(0.0);
      } else {
        const size_t idx = std::min(input.next, input.size() - 1);
        // Reconstruct the tail's internal score from its document.
        tail = column_score(input.term, (*input.entries)[idx].first);
      }
      if (first) {
        bound = std::move(tail);
        first = false;
      } else {
        bound = shape == Shape::kConjunction ? scheme_->Conj(bound, tail)
                                             : scheme_->Disj(bound, tail);
      }
    }
    if (bound_valid && top.size() >= k) {
      // ω is monotone in the aggregate for rank-eligible schemes.
      sa::DocContext generic;
      generic.length = 1;
      generic.collection_size = stats_view_.CollectionSize();
      generic.avg_doc_length = stats_view_.AverageDocLength();
      const double threshold =
          scheme_->Finalize(generic, query_ctx, bound);
      if (worst_kept() >= threshold) {
        break;
      }
    }
  }
  stats_.stopping_depth = stats_.entries_pulled;
  return top;
}

}  // namespace graft::exec
