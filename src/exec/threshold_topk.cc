#include "exec/threshold_topk.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/optimization_gate.h"
#include "exec/topk_common.h"

namespace graft::exec {

std::string ThresholdTopK::GateVerdict(const mcalc::Query& query,
                                       const sa::ScoringScheme& scheme) {
  std::vector<const mcalc::Node*> keywords;
  const topk::Shape shape = topk::QueryShape(query, &keywords);
  if (shape == topk::Shape::kUnsupported || keywords.empty()) {
    return "blocked: not a pure keyword conjunction or disjunction";
  }
  const core::Optimization opt = shape == topk::Shape::kConjunction
                                     ? core::Optimization::kRankJoin
                                     : core::Optimization::kRankUnion;
  if (!core::IsOptimizationValid(opt, scheme.properties())) {
    return "blocked by gate: " +
           core::ExplainGate(opt, scheme.properties()).reason;
  }
  // Implementation constraint on top of the Table-1 gate (same as
  // TopKRankEngine): stream-tail thresholds are exact only when ⊕ over a
  // column's equal alternates is idempotent.
  if (!scheme.properties().alt.idempotent) {
    return "blocked: ⊕ not idempotent (stream tails cannot bound unseen "
           "documents)";
  }
  return "";
}

StatusOr<std::vector<ma::ScoredDoc>> ThresholdTopK::TopK(
    const mcalc::Query& query, size_t k) {
  std::vector<const mcalc::Node*> keywords;
  const topk::Shape shape = topk::QueryShape(query, &keywords);
  const std::string verdict = GateVerdict(query, *scheme_);
  if (!verdict.empty()) {
    return Status::FailedPrecondition("threshold top-k (TA) " + verdict);
  }
  stats_ = TaStats();
  if (k == 0) {
    return std::vector<ma::ScoredDoc>{};
  }

  const index::InvertedIndex& index = stats_view_.index();
  const size_t n = keywords.size();
  const topk::ColumnScorer scorer(&stats_view_, scheme_,
                                  static_cast<uint32_t>(n));

  // Sorted access: per-term streams ordered by column score (desc, doc
  // asc). Random access: per-term doc → tf maps. Built per query — TA's
  // cost model charges for every access, so nothing is cached across
  // queries (TopKRankEngine is the cached variant).
  struct Input {
    TermId term = kInvalidTerm;
    std::vector<std::pair<DocId, double>> entries;  // score desc, doc asc
    std::unordered_map<DocId, uint32_t> tf;
    size_t next = 0;
  };
  std::vector<Input> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    inputs[i].term = index.LookupTerm(keywords[i]->keyword);
    if (inputs[i].term == kInvalidTerm) {
      if (shape == topk::Shape::kConjunction) {
        return std::vector<ma::ScoredDoc>{};  // term absent: no matches
      }
      continue;
    }
    const index::PostingList& list = index.postings(inputs[i].term);
    const auto [first, last] = list.Bounds(range_);
    inputs[i].entries.reserve(last - first);
    inputs[i].tf.reserve(last - first);
    for (size_t p = first; p < last; ++p) {
      const DocId doc = list.doc_at(p);
      const uint32_t tf = list.tf_at(p);
      inputs[i].tf.emplace(doc, tf);
      inputs[i].entries.emplace_back(
          doc, scorer.ColumnScoreTf(inputs[i].term, tf, doc).a);
    }
    std::sort(inputs[i].entries.begin(), inputs[i].entries.end(),
              [](const std::pair<DocId, double>& a,
                 const std::pair<DocId, double>& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    stats_.total_entries += inputs[i].entries.size();
  }

  // Exact document score by random access; nullopt-style (matches=false)
  // for conjunctions missing a term.
  const auto full_score = [&](DocId doc, bool* matches) {
    *matches = true;
    sa::InternalScore acc;
    bool first = true;
    for (size_t i = 0; i < n; ++i) {
      uint32_t tf = 0;
      if (!inputs[i].tf.empty()) {
        const auto it = inputs[i].tf.find(doc);
        tf = it == inputs[i].tf.end() ? 0 : it->second;
      }
      ++stats_.random_accesses;
      if (shape == topk::Shape::kConjunction && tf == 0) {
        *matches = false;
        return 0.0;
      }
      sa::InternalScore column =
          scorer.ColumnScoreTf(inputs[i].term, tf, doc);
      if (first) {
        acc = std::move(column);
        first = false;
      } else {
        acc = scorer.Combine(shape, acc, column);
      }
    }
    return scorer.Finalize(doc, acc);
  };

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

  // TA loop: one round = one sorted access per non-exhausted list, each
  // pulled document completed by random access; then the threshold test
  // τ = ω(fold of last-seen sorted values).
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < n; ++i) {
      Input& input = inputs[i];
      if (input.next >= input.entries.size()) {
        continue;
      }
      const DocId pulled_doc = input.entries[input.next++].first;
      ++stats_.sorted_accesses;
      progressed = true;
      consider(pulled_doc);
    }
    if (!progressed) {
      break;
    }
    // τ: the best score any unseen document could still reach. The i-th
    // column of an unseen document is bounded by list i's last value seen
    // under sorted access (unseen entries sort at or below it). Exhausted
    // lists bound by their final (smallest) value — or, for disjunctions,
    // an initially empty list contributes a zero column.
    sa::InternalScore bound;
    bool first = true;
    bool bound_valid = true;
    for (size_t i = 0; i < n; ++i) {
      const Input& input = inputs[i];
      sa::InternalScore tail;
      if (input.entries.empty()) {
        if (shape == topk::Shape::kConjunction) {
          bound_valid = false;
          break;
        }
        tail = sa::InternalScore(0.0);
      } else {
        const size_t idx = std::min(input.next, input.entries.size()) - 1;
        // Reconstruct the last-seen internal score from its document (the
        // stream stores only the primary slot; non-primary slots are
        // invariant across one term's matched cells for bounded schemes).
        const DocId tail_doc = input.entries[idx].first;
        const auto it = input.tf.find(tail_doc);
        const uint32_t tf = it == input.tf.end() ? 0 : it->second;
        tail = scorer.ColumnScoreTf(input.term, tf, tail_doc);
      }
      if (first) {
        bound = std::move(tail);
        first = false;
      } else {
        bound = scorer.Combine(shape, bound, tail);
      }
    }
    if (bound_valid && top.size() >= k) {
      ++stats_.threshold_checks;
      const double threshold = scorer.FinalizeGeneric(bound);
      if (worst_kept() >= threshold) {
        break;
      }
    }
  }
  stats_.stopping_depth = stats_.sorted_accesses;
  return top;
}

}  // namespace graft::exec
