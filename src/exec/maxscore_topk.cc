#include "exec/maxscore_topk.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "core/optimization_gate.h"
#include "exec/topk_common.h"
#include "index/posting_list.h"

namespace graft::exec {

using topk::Shape;

std::string MaxScoreTopK::GateVerdict(const mcalc::Query& query,
                                      const sa::ScoringScheme& scheme,
                                      const index::StatsOverlay* overlay) {
  std::vector<const mcalc::Node*> keywords;
  const Shape shape = topk::QueryShape(query, &keywords);
  if (shape == Shape::kUnsupported || keywords.empty()) {
    return "blocked: not a pure keyword conjunction/disjunction";
  }
  const core::GateDecision gate = core::ExplainGate(
      core::Optimization::kBlockMaxPruning, scheme.properties());
  if (!gate.valid) {
    return "blocked by gate: " + gate.reason;
  }
  if (overlay != nullptr && overlay->overrides_documents()) {
    return "blocked: stats overlay overrides per-document statistics";
  }
  return std::string();
}

StatusOr<std::vector<ma::ScoredDoc>> MaxScoreTopK::TopK(
    const mcalc::Query& query, size_t k) {
  std::vector<const mcalc::Node*> keywords;
  const Shape shape = topk::QueryShape(query, &keywords);
  const index::InvertedIndex& index = stats_view_.index();
  const std::string verdict =
      GateVerdict(query, *scheme_, stats_view_.overlay());
  if (!verdict.empty()) {
    return Status::FailedPrecondition("MaxScore top-k not licensed: " +
                                      verdict);
  }
  stats_ = ExecStats();
  if (k == 0) {
    return std::vector<ma::ScoredDoc>{};
  }

  const size_t n = keywords.size();

  // ---- Cursors ----
  // A posting cursor over the view's range plus the ceiling and charge
  // bookkeeping of the block it sits in.
  struct Cursor {
    const index::PostingList* list = nullptr;  // null: term absent / empty
    index::PostingCursor postings;
    // Ceiling of the block the cursor currently sits in, computed lazily
    // and reused while the cursor stays inside the block.
    size_t cached_block = std::numeric_limits<size_t>::max();
    sa::InternalScore cached_ceiling;
    // Last block charged to topk_blocks_decoded (cursors only move
    // forward, so one high-water mark per cursor counts distinct blocks
    // exactly).
    size_t counted_block = std::numeric_limits<size_t>::max();

    bool exhausted() const { return list == nullptr || postings.AtEnd(); }
    DocId doc() const { return postings.doc(); }
    size_t block() const { return postings.block(); }
    size_t last_block() const { return postings.last_block(); }
  };
  std::vector<TermId> terms(n);
  std::vector<Cursor> cursors(n);
  for (size_t i = 0; i < n; ++i) {
    terms[i] = index.LookupTerm(keywords[i]->keyword);
    if (terms[i] == kInvalidTerm) {
      if (shape == Shape::kConjunction) {
        return std::vector<ma::ScoredDoc>{};  // term absent: no matches
      }
      continue;
    }
    const index::PostingList& list = index.postings(terms[i]);
    index::PostingCursor postings(&list, range_);
    if (postings.AtEnd()) {
      if (shape == Shape::kConjunction) {
        return std::vector<ma::ScoredDoc>{};
      }
      continue;
    }
    cursors[i].list = &list;
    cursors[i].postings = std::move(postings);
  }
  const topk::ColumnScorer scorer(&stats_view_, scheme_, shape, terms);

  // Charges the cursor's current block to topk_blocks_decoded the first
  // time a tf entry (the score payload) is read from it. Doc-id reads for
  // alignment are boundary probes of the skip structure, not payload
  // decodes: a ceiling-skipped block has its first doc id examined as a
  // candidate and is then abandoned, so charging on doc-id reads would
  // count every block and hide the skip. Blocks whose payload is never
  // scored — galloped over, ceiling-skipped, or alignment-only — stay
  // uncharged; the bench compares this against the term lists' total
  // block count, what an exhaustive scan decodes.
  const auto touch = [&](Cursor& c) {
    const size_t b = c.block();
    if (c.counted_block != b) {
      ++stats_.topk_blocks_decoded;
      c.counted_block = b;
    }
  };

  // Ceiling of the cursor's current block: the best-α point of the block's
  // (tf, doc length) Pareto frontier. Boundedness dominates every in-block
  // document by SOME frontier point, and the frontier points are real
  // (tf, length) pairs from the block, so the max over them is the EXACT
  // per-block ceiling — tight enough for whole-block skips to actually
  // fire (the naive α(max tf, min length) pairs extremes from different
  // documents and rarely prunes anything). Selecting the point by the
  // primary slot is sound because licensed schemes keep their non-primary
  // slots constant across matched cells of one term (AnySum/AnyProd use
  // only `a`; Lucene's `b` is the matched count, 1 for every frontier
  // point), so the chosen point dominates slot-wise, which the monotone
  // ⊘/⊚ folds require. ⊕-idempotence makes ⊗ the identity, so one α call
  // per point bounds the column regardless of tf. Each point is evaluated
  // under the scorer's generic context — the view's collection statistics,
  // overlay included, exactly as documents are scored — with its own
  // length substituted.
  const auto frontier_max = [&](size_t column, size_t begin, size_t end) {
    const index::PostingList& list = *cursors[column].list;
    sa::ColumnContext col = scorer.Column(column, /*tf=*/0);
    sa::DocContext dctx = scorer.Generic();
    sa::InternalScore best;
    bool first = true;
    for (size_t p = begin; p < end; ++p) {
      col.tf_in_doc = list.frontier_tf(p);
      dctx.length = list.frontier_doc_length(p);
      sa::InternalScore point = scheme_->Init(dctx, col, /*offset=*/0);
      if (first || point.a > best.a) {
        best = std::move(point);
        first = false;
      }
    }
    return best;
  };
  // Term-level upper bound: the best α across the frontiers of every block
  // the view's range touches — the exact maximum column score over those
  // blocks (a block straddling a range boundary keeps its whole-block
  // ceiling, which still bounds the range's part of it). The ∅ cell
  // (tf = 0) is dominated by any ceiling for a bounded scheme. Every
  // disjunction reads both; a conjunction reads the term bound only as its
  // term-bound ceiling.
  std::vector<sa::InternalScore> ub(n);
  std::vector<sa::InternalScore> empty_cell(n);
  if (shape == Shape::kDisjunction || !block_max_) {
    for (size_t i = 0; i < n; ++i) {
      empty_cell[i] = scorer.ColumnScore(i, /*tf=*/0, scorer.Generic());
      const Cursor& c = cursors[i];
      if (c.list == nullptr) {
        ub[i] = empty_cell[i];
        continue;
      }
      if (block_max_) ++stats_.topk_ceiling_probes;
      ub[i] = frontier_max(i, c.list->frontier_begin(c.block()),
                           c.list->frontier_end(c.last_block()));
    }
  }

  // The cursor's current skip unit: its posting block under block-max
  // bounds; under term bounds its whole range, one block whose ceiling is
  // the term bound. block_ceiling bounds every column score left in the
  // unit; skip_frontier is the unit's last doc, the skip target (a range
  // ending mid-block answers its last block's last doc, which skips past
  // the range all the same, read from the block header without a decode).
  const auto block_ceiling = [&](size_t column) -> const sa::InternalScore& {
    if (!block_max_) return ub[column];
    Cursor& c = cursors[column];
    const size_t b = c.block();
    if (c.cached_block != b) {
      ++stats_.topk_ceiling_probes;
      c.cached_ceiling = frontier_max(column, c.list->frontier_begin(b),
                                      c.list->frontier_end(b));
      c.cached_block = b;
    }
    return c.cached_ceiling;
  };
  const auto skip_frontier = [&](const Cursor& c) {
    return c.list->block_last_doc(block_max_ ? c.block() : c.last_block());
  };

  topk::TopList top(k);
  std::vector<uint32_t> tfs(n);

  if (shape == Shape::kConjunction) {
    // ---- Conjunction: leapfrog + ceiling skip (BMW-style) ----
    while (true) {
      // Leapfrog alignment on the largest current doc.
      DocId candidate = 0;
      bool done = false;
      for (Cursor& c : cursors) {
        if (c.exhausted()) {
          done = true;
          break;
        }
        candidate = std::max(candidate, c.doc());
      }
      if (done) break;
      bool aligned = true;
      for (Cursor& c : cursors) {
        if (c.doc() < candidate) {
          c.postings.SkipTo(candidate);
          if (c.exhausted()) {
            done = true;
            break;
          }
          if (c.doc() > candidate) {
            aligned = false;  // overshoot: next round raises the candidate
            break;
          }
        }
      }
      if (done) break;
      if (!aligned) continue;

      if (top.full()) {
        // Fold the current units' ceilings (keyword order, like scoring:
        // monotone rounding then guarantees ceiling >= any in-unit score
        // at the bit level). Skip to just past the earliest-ending unit
        // when the fold cannot beat the heap.
        sa::InternalScore bound;
        bool first = true;
        DocId frontier = std::numeric_limits<DocId>::max();
        for (size_t i = 0; i < n; ++i) {
          const Cursor& c = cursors[i];
          const sa::InternalScore& ceiling = block_ceiling(i);
          if (first) {
            bound = ceiling;
            first = false;
          } else {
            bound = scorer.Combine(bound, ceiling);
          }
          frontier = std::min(frontier, skip_frontier(c));
        }
        if (top.Worst() >= scorer.FinalizeGeneric(bound)) {
          // Every term's postings in [candidate, frontier] lie inside the
          // term's current unit, so no document there can reach the heap.
          if (block_max_) ++stats_.topk_blocks_skipped;
          ++stats_.docs_pruned;  // the aligned candidate, at least
          for (Cursor& c : cursors) {
            c.postings.SkipTo(frontier + 1);
          }
          continue;
        }
      }

      for (size_t i = 0; i < n; ++i) {
        touch(cursors[i]);
        tfs[i] = cursors[i].postings.tf();
      }
      stats_.rank_heap_ops +=
          top.Offer(candidate, scorer.Score(candidate, tfs));
      ++stats_.docs_scored;
      for (Cursor& c : cursors) {
        c.postings.Next();
      }
    }
    return std::move(top).Take();
  }

  // ---- Disjunction: MaxScore essential/non-essential partition ----
  // Keywords sorted by upper bound; rank[i] is keyword i's position in
  // that order. The non-essential set is always a prefix of the order.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (ub[a].a != ub[b].a) return ub[a].a < ub[b].a;
    return a < b;
  });
  std::vector<size_t> rank(n);
  for (size_t p = 0; p < n; ++p) {
    rank[order[p]] = p;
  }
  // prefix_bound[p]: ceiling on any document whose matched keywords all
  // rank below p — keyword-order fold of (UB if rank < p else ∅ cell).
  // Monotone in p because UB dominates the ∅ cell slot-wise.
  std::vector<double> prefix_bound(n + 1);
  for (size_t p = 0; p <= n; ++p) {
    sa::InternalScore bound;
    bool first = true;
    for (size_t i = 0; i < n; ++i) {
      const sa::InternalScore& v = rank[i] < p ? ub[i] : empty_cell[i];
      if (first) {
        bound = v;
        first = false;
      } else {
        bound = scorer.Combine(bound, v);
      }
    }
    prefix_bound[p] = scorer.FinalizeGeneric(bound);
  }

  double last_worst = -std::numeric_limits<double>::infinity();
  size_t num_nonessential = 0;
  while (true) {
    const double worst = top.Worst();
    if (worst != last_worst) {
      // The k-th best improved: re-partition. Documents matching only
      // keywords in the non-essential prefix can no longer enter the heap.
      last_worst = worst;
      ++stats_.topk_threshold_updates;
      while (num_nonessential < n &&
             prefix_bound[num_nonessential + 1] <= worst) {
        ++num_nonessential;
      }
    }
    if (num_nonessential >= n) {
      break;  // no remaining document can beat the heap
    }

    // Next candidate: smallest current doc among live essential cursors.
    DocId candidate = kInvalidDoc;
    for (size_t i = 0; i < n; ++i) {
      if (rank[i] < num_nonessential || cursors[i].exhausted()) {
        continue;
      }
      candidate = std::min(candidate, cursors[i].doc());
    }
    if (candidate == kInvalidDoc) {
      break;  // essential lists exhausted
    }

    if (top.full()) {
      // Unit-level skip: fold (keyword order) the live essential cursors'
      // current-unit ceilings with the non-essential terms' UBs (∅ cell
      // for exhausted lists). If the fold cannot beat the heap, every
      // essential posting up to the earliest unit end is skippable.
      sa::InternalScore bound;
      bool first = true;
      DocId frontier = std::numeric_limits<DocId>::max();
      for (size_t i = 0; i < n; ++i) {
        Cursor& c = cursors[i];
        const bool essential_alive =
            rank[i] >= num_nonessential && !c.exhausted();
        const sa::InternalScore* v;
        if (essential_alive) {
          v = &block_ceiling(i);
          frontier = std::min(frontier, skip_frontier(c));
        } else if (c.exhausted()) {
          v = &empty_cell[i];  // no document >= candidate contains it
        } else {
          v = &ub[i];  // non-essential, probed only on demand
        }
        if (first) {
          bound = *v;
          first = false;
        } else {
          bound = scorer.Combine(bound, *v);
        }
      }
      if (top.Worst() >= scorer.FinalizeGeneric(bound)) {
        if (block_max_) ++stats_.topk_blocks_skipped;
        ++stats_.docs_pruned;  // the candidate itself matches
        for (size_t i = 0; i < n; ++i) {
          Cursor& c = cursors[i];
          if (rank[i] >= num_nonessential && !c.exhausted()) {
            c.postings.SkipTo(frontier + 1);
          }
        }
        continue;
      }
    }

    // Complete the candidate: essential tfs from the cursors, non-essential
    // tfs by forward-only galloping probes (candidates ascend).
    for (size_t i = 0; i < n; ++i) {
      Cursor& c = cursors[i];
      uint32_t tf = 0;
      if (c.list != nullptr) {
        if (rank[i] >= num_nonessential) {
          if (!c.exhausted() && c.doc() == candidate) {
            touch(c);
            tf = c.postings.tf();
          }
        } else {
          c.postings.SkipTo(candidate);
          if (!c.exhausted() && c.doc() == candidate) {
            touch(c);
            tf = c.postings.tf();
          }
        }
      }
      tfs[i] = tf;
    }
    stats_.rank_heap_ops +=
        top.Offer(candidate, scorer.Score(candidate, tfs));
    ++stats_.docs_scored;
    for (size_t i = 0; i < n; ++i) {
      Cursor& c = cursors[i];
      if (rank[i] >= num_nonessential && !c.exhausted() &&
          c.doc() == candidate) {
        c.postings.Next();
      }
    }
  }
  return std::move(top).Take();
}

}  // namespace graft::exec
