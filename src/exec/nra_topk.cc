#include "exec/nra_topk.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/optimization_gate.h"
#include "exec/topk_common.h"

namespace graft::exec {

namespace {

// Candidate bookkeeping bit-masks cap the keyword count; far above any
// realistic pure-keyword query, and the gate reports it honestly.
constexpr size_t kMaxNraColumns = 64;

}  // namespace

std::string NraTopK::GateVerdict(const mcalc::Query& query,
                                 const sa::ScoringScheme& scheme) {
  std::vector<const mcalc::Node*> keywords;
  const topk::Shape shape = topk::QueryShape(query, &keywords);
  if (shape == topk::Shape::kUnsupported || keywords.empty()) {
    return "blocked: not a pure keyword conjunction or disjunction";
  }
  if (keywords.size() > kMaxNraColumns) {
    return "blocked: more than 64 keywords (candidate mask width)";
  }
  const core::Optimization opt = shape == topk::Shape::kConjunction
                                     ? core::Optimization::kRankJoin
                                     : core::Optimization::kRankUnion;
  if (!core::IsOptimizationValid(opt, scheme.properties())) {
    return "blocked by gate: " +
           core::ExplainGate(opt, scheme.properties()).reason;
  }
  if (!scheme.properties().alt.idempotent) {
    return "blocked: ⊕ not idempotent (stream tails cannot bound unseen "
           "documents)";
  }
  // NRA-specific: the upper bound of a partially known candidate
  // substitutes a stream tail's internal score for each unknown column,
  // which over-approximates only when α is upper-boundable (monotone with
  // term-invariant non-primary slots) — the `bounded` property.
  if (!scheme.properties().bounded) {
    return "blocked by gate: α not upper-boundable (NRA bound pairs need "
           "a bounded α)";
  }
  return "";
}

StatusOr<std::vector<ma::ScoredDoc>> NraTopK::TopK(const mcalc::Query& query,
                                                   size_t k) {
  std::vector<const mcalc::Node*> keywords;
  const topk::Shape shape = topk::QueryShape(query, &keywords);
  const std::string verdict = GateVerdict(query, *scheme_);
  if (!verdict.empty()) {
    return Status::FailedPrecondition("NRA top-k " + verdict);
  }
  stats_ = NraStats();
  if (k == 0) {
    return std::vector<ma::ScoredDoc>{};
  }

  const index::InvertedIndex& index = stats_view_.index();
  const size_t n = keywords.size();
  const topk::ColumnScorer scorer(&stats_view_, scheme_,
                                  static_cast<uint32_t>(n));
  const bool conj = shape == topk::Shape::kConjunction;

  // Sorted-access streams carry (doc, primary score, tf): NRA may not
  // probe a list by document, so the tf rides along with the entry.
  struct Entry {
    DocId doc;
    double score;
    uint32_t tf;
  };
  struct Input {
    TermId term = kInvalidTerm;
    std::vector<Entry> entries;  // score desc, doc asc
    size_t next = 0;

    bool exhausted() const { return next >= entries.size(); }
  };
  std::vector<Input> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    inputs[i].term = index.LookupTerm(keywords[i]->keyword);
    if (inputs[i].term == kInvalidTerm) {
      if (conj) {
        return std::vector<ma::ScoredDoc>{};  // term absent: no matches
      }
      continue;
    }
    const index::PostingList& list = index.postings(inputs[i].term);
    const auto [first, last] = list.Bounds(range_);
    inputs[i].entries.reserve(last - first);
    for (size_t p = first; p < last; ++p) {
      const DocId doc = list.doc_at(p);
      const uint32_t tf = list.tf_at(p);
      inputs[i].entries.push_back(
          Entry{doc, scorer.ColumnScoreTf(inputs[i].term, tf, doc).a, tf});
    }
    std::sort(inputs[i].entries.begin(), inputs[i].entries.end(),
              [](const Entry& a, const Entry& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    stats_.total_entries += inputs[i].entries.size();
  }

  // Bound-pair bookkeeping: per candidate, the columns seen under sorted
  // access (bitmask) with their term frequencies. A column is *known* when
  // seen, or when its stream is exhausted (the full list passed by without
  // the document: tf == 0 exactly — legitimate NRA knowledge, not a random
  // access).
  struct Cand {
    std::vector<uint32_t> tf;
    uint64_t seen = 0;
  };
  std::unordered_map<DocId, Cand> cands;
  std::unordered_set<DocId> done;  // resolved (emitted or discarded)

  std::vector<ma::ScoredDoc> top;
  const auto worst_kept = [&]() {
    return top.size() < k ? -std::numeric_limits<double>::infinity()
                          : top.back().score;
  };
  const auto emit = [&](DocId doc, double score) {
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

  // The column score of (doc, column i) given the candidate's knowledge,
  // or the stream-tail over-approximation when unknown. `exact` reports
  // whether the value is the true column score.
  const auto column_bound = [&](DocId doc, const Cand& cand, size_t i,
                                bool* exact) {
    *exact = true;
    if ((cand.seen >> i) & 1) {
      return scorer.ColumnScoreTf(inputs[i].term, cand.tf[i], doc);
    }
    if (inputs[i].exhausted()) {
      // Whole list passed by without this document: tf is exactly 0.
      return scorer.ColumnScoreTf(inputs[i].term, 0, doc);
    }
    *exact = false;
    // Unseen entries of a live stream sort at or below the last pulled
    // one; reconstruct its internal score from its own document (sound
    // for bounded α: non-primary slots are term-invariant).
    const Entry& tail = inputs[i].entries[inputs[i].next - 1];
    return scorer.ColumnScoreTf(inputs[i].term, tail.tf, tail.doc);
  };

  bool stopped = false;
  while (!stopped) {
    // One NRA round: one sorted access per live stream.
    bool progressed = false;
    for (size_t i = 0; i < n; ++i) {
      Input& input = inputs[i];
      if (input.exhausted()) {
        continue;
      }
      const Entry& entry = input.entries[input.next++];
      ++stats_.sorted_accesses;
      progressed = true;
      if (done.count(entry.doc) != 0) {
        continue;
      }
      auto [it, inserted] = cands.try_emplace(entry.doc);
      if (inserted) {
        it->second.tf.assign(n, 0);
        ++stats_.candidates_tracked;
      }
      it->second.tf[i] = entry.tf;
      it->second.seen |= uint64_t{1} << i;
    }
    ++stats_.rounds;

    // Resolve candidates whose every column is known (seen or implied by
    // an exhausted stream); conjunctions drop candidates an exhausted
    // stream proves non-matching.
    std::vector<DocId> resolved;
    for (auto& [doc, cand] : cands) {
      bool all_known = true;
      bool dead = false;
      for (size_t i = 0; i < n; ++i) {
        if ((cand.seen >> i) & 1) {
          continue;
        }
        if (!inputs[i].exhausted()) {
          all_known = false;
          break;
        }
        if (conj) {
          dead = true;  // tf == 0 in a conjunction column
          break;
        }
      }
      if (!all_known && !dead) {
        continue;
      }
      resolved.push_back(doc);
      if (dead) {
        continue;
      }
      sa::InternalScore acc;
      bool first = true;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t tf = ((cand.seen >> i) & 1) ? cand.tf[i] : 0;
        sa::InternalScore column =
            scorer.ColumnScoreTf(inputs[i].term, tf, doc);
        if (first) {
          acc = std::move(column);
          first = false;
        } else {
          acc = scorer.Combine(shape, acc, column);
        }
      }
      ++stats_.candidates_resolved;
      emit(doc, scorer.Finalize(doc, acc));
    }
    for (const DocId doc : resolved) {
      done.insert(doc);
      cands.erase(doc);
    }

    if (!progressed && cands.empty()) {
      break;  // streams exhausted, everything resolved
    }

    // Stop test: the k-th best exact score must dominate (a) the best
    // upper bound among unresolved candidates and (b) the threshold for
    // completely unseen documents (the TA τ over stream tails).
    if (top.size() < k) {
      continue;
    }
    double best_open = -std::numeric_limits<double>::infinity();
    for (const auto& [doc, cand] : cands) {
      sa::InternalScore acc;
      bool first = true;
      for (size_t i = 0; i < n; ++i) {
        bool exact = false;
        sa::InternalScore column = column_bound(doc, cand, i, &exact);
        if (first) {
          acc = std::move(column);
          first = false;
        } else {
          acc = scorer.Combine(shape, acc, column);
        }
      }
      ++stats_.bound_refinements;
      best_open = std::max(best_open, scorer.Finalize(doc, acc));
      if (best_open > worst_kept()) {
        break;  // cannot stop this round; skip the remaining bounds
      }
    }

    sa::InternalScore tau;
    bool tau_first = true;
    bool tau_valid = true;
    for (size_t i = 0; i < n; ++i) {
      const Input& input = inputs[i];
      sa::InternalScore tail;
      if (input.entries.empty()) {
        if (conj) {
          tau_valid = false;  // unreachable: absent conj terms exit early
          break;
        }
        tail = sa::InternalScore(0.0);
      } else if (input.exhausted() && conj) {
        // A conjunction column fully consumed: no unseen document matches.
        tau_valid = false;
        break;
      } else {
        const size_t idx = std::min(input.next, input.entries.size()) - 1;
        const Entry& last = input.entries[idx];
        tail = scorer.ColumnScoreTf(input.term, last.tf, last.doc);
      }
      if (tau_first) {
        tau = std::move(tail);
        tau_first = false;
      } else {
        tau = scorer.Combine(shape, tau, tail);
      }
    }
    double unseen_bound = -std::numeric_limits<double>::infinity();
    if (tau_valid && progressed) {
      unseen_bound = scorer.FinalizeGeneric(tau);
    }

    if (worst_kept() >= best_open && worst_kept() >= unseen_bound) {
      stopped = true;
    }
  }
  stats_.stopping_depth = stats_.sorted_accesses;
  return top;
}

}  // namespace graft::exec
