#include "exec/rank_join.h"

#include <algorithm>
#include <unordered_set>

#include "core/optimization_gate.h"
#include "exec/topk_common.h"

namespace graft::exec {

using topk::Shape;

bool TopKRankEngine::Supports(const mcalc::Query& query,
                              const sa::ScoringScheme& scheme) {
  std::vector<const mcalc::Node*> keywords;
  const Shape shape = topk::QueryShape(query, &keywords);
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
  const Shape shape = topk::QueryShape(query, &keywords);
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
  if (k == 0) {
    return std::vector<ma::ScoredDoc>{};
  }

  const index::InvertedIndex& index = stats_view_.index();
  const size_t n = keywords.size();

  struct Input {
    const std::vector<std::pair<DocId, double>>* entries = nullptr;
    const std::unordered_map<DocId, uint32_t>* tf = nullptr;
    size_t next = 0;

    bool empty() const { return entries == nullptr || entries->empty(); }
    size_t size() const { return entries == nullptr ? 0 : entries->size(); }
  };

  // Resolve the score-ordered streams. A production system keeps these as
  // impact-ordered postings; here they are built once per term and cached
  // on the engine, so repeated queries pay only for consumption.
  std::vector<TermId> terms(n);
  for (size_t i = 0; i < n; ++i) {
    terms[i] = index.LookupTerm(keywords[i]->keyword);
    if (terms[i] == kInvalidTerm && shape == Shape::kConjunction) {
      return std::vector<ma::ScoredDoc>{};  // term absent: no matches
    }
  }
  const topk::ColumnScorer scorer(&stats_view_, scheme_, shape, terms);
  std::vector<Input> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    if (terms[i] == kInvalidTerm) {
      continue;
    }
    auto [it, inserted] = stream_cache_.try_emplace(terms[i]);
    if (inserted) {
      ++stats_.streams_built;
      const index::PostingList& list = index.postings(terms[i]);
      const auto [first, last] = list.Bounds(range_);
      it->second.entries.reserve(last - first);
      it->second.tf.reserve(last - first);
      for (size_t p = first; p < last; ++p) {
        const DocId doc = list.doc_at(p);
        const uint32_t tf = list.tf_at(p);
        it->second.tf.emplace(doc, tf);
        it->second.entries.emplace_back(
            doc, scorer.ColumnScore(i, tf, doc).a);
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

  std::vector<uint32_t> tfs(n);

  // Random access resolves tf through the cached per-term maps: O(1).
  // False when a conjunction's document lacks a keyword.
  const auto complete = [&](DocId doc) {
    for (size_t i = 0; i < n; ++i) {
      uint32_t tf = 0;
      if (inputs[i].tf != nullptr) {
        const auto it = inputs[i].tf->find(doc);
        tf = it == inputs[i].tf->end() ? 0 : it->second;
      }
      if (shape == Shape::kConjunction && tf == 0) {
        return false;
      }
      tfs[i] = tf;
    }
    return true;
  };

  // Threshold-algorithm loop: round-robin pulls in score order; each new
  // document is completed by random access; stop when the k-th best result
  // dominates the threshold assembled from the streams' tails.
  topk::TopList top(k);
  std::unordered_set<DocId> seen;
  const auto consider = [&](DocId doc) {
    if (!seen.insert(doc).second) {
      return;
    }
    ++stats_.candidates_scored;
    if (complete(doc)) {
      stats_.heap_ops += top.Offer(doc, scorer.Score(doc, tfs));
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
        // Reconstruct the tail's internal score from its document and the
        // tf its stream key was built from.
        const DocId tail_doc = (*input.entries)[idx].first;
        tail = scorer.ColumnScore(i, input.tf->at(tail_doc), tail_doc);
      }
      if (first) {
        bound = std::move(tail);
        first = false;
      } else {
        bound = scorer.Combine(bound, tail);
      }
    }
    if (bound_valid && top.full() &&
        top.Worst() >= scorer.FinalizeGeneric(bound)) {
      break;
    }
  }
  return std::move(top).Take();
}

}  // namespace graft::exec
