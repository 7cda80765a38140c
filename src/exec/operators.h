// Streaming physical operators.
//
// Execution is document-at-a-time: every operator exposes a document
// cursor (AdvanceDoc) and a lazy row iterator for the current document
// (NextRow). This shape gives the paper's physical techniques directly:
//
//   * AdvanceDoc(min_doc) propagates skip targets down to the index scans,
//     which gallop — this is the zig-zag join / skip-pointer machinery
//     (Section 5.2.1): a join aligns its inputs by leapfrogging doc ids.
//   * Rows are produced lazily, so an alternate-elimination operator that
//     takes one row per document implicitly signals every operator below
//     it to skip the rest of the document's tuples (Section 5.2.3) — and a
//     join that produces only one row per doc behaves as the stateless
//     forward-scan join (Section 5.2.2).
//   * EagerCountScanOp iterates the term-position postings to count
//     (classical eager counting); PreCountScanOp reads the term-document
//     arrays and never touches position memory (pre-counting).
//
// Operators are built from resolved logical plans by BuildOperator.
//
// Every operator (and both top-k engines) counts its work into ExecStats.
// kExecCounters, below it, declares each counter once — member, JSON key,
// EXPLAIN ANALYZE line and label — and Accumulate, EXPLAIN ANALYZE and the
// /search "exec" objects are loops over it (common/counters.h).

#ifndef GRAFT_EXEC_OPERATORS_H_
#define GRAFT_EXEC_OPERATORS_H_

#include <iterator>
#include <memory>
#include <vector>

#include "common/status.h"
#include "index/stats.h"
#include "ma/plan.h"
#include "sa/scoring_scheme.h"

namespace graft::exec {

// Per-query execution counters: what the physical operators actually did.
// Surfaced by EXPLAIN ANALYZE / ?explain=1 and compared against cost-model
// predictions; tests use them to verify physical claims (e.g. that
// pre-counting touches no position entries). Adding a counter is a field
// here, a kExecCounters row and a row in docs/operators.md.
struct ExecStats {
  uint64_t positions_scanned = 0;      // term positions read (A scans)
  uint64_t count_entries_scanned = 0;  // doc/tf entries read (CA scans)
  uint64_t rows_built = 0;             // join output rows materialized
  uint64_t docs_visited = 0;           // documents surfaced by the root
  uint64_t blocks_decoded = 0;         // documents whose positions a
                                       // scan decoded
  uint64_t gallop_probes = 0;          // doc-id comparisons inside SkipTo
  uint64_t skip_calls = 0;             // SkipTo invocations by operators
  uint64_t skip_hits = 0;              // SkipTo calls that leapfrogged >= 1
                                       // posting (the zig-zag payoff)
  // Rank-processing (threshold algorithm) counters; zero on the full
  // streaming path.
  uint64_t rank_heap_ops = 0;  // top-k candidate inserts + evictions
  uint64_t docs_scored = 0;    // candidates fully scored
  uint64_t docs_pruned = 0;    // candidate postings never completed
  uint64_t topk_sorted_accesses = 0;  // score-ordered stream entries
                                      // pulled; no operator charges it
  // MaxScoreTopK counters; zero unless the MaxScoreTopK path ran. The
  // term-bound mode charges neither blocks_skipped nor ceiling_probes.
  uint64_t topk_blocks_skipped = 0;     // whole-block skips via ceilings
  uint64_t topk_blocks_decoded = 0;     // distinct posting blocks whose tf
                                        // entries MaxScore read (vs. every
                                        // block of every term list)
  uint64_t topk_ceiling_probes = 0;     // block/term ceiling evaluations
  uint64_t topk_threshold_updates = 0;  // k-th-best-score improvements
  // Decoded-block cache traffic (v5 mmap indexes); zero on materialized
  // indexes. Harvested from the thread-local BlockCache accumulator around
  // query execution by the engine.
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_cache_evictions = 0;
  uint64_t packed_payload_decodes = 0;  // blocks whose score payload (tfs +
                                        // offset lengths) was bit-unpacked
  // Per-rewrite-rule fired counters, indexed by the rule's position in
  // core::RewriteRuleRegistry (kAllOptimizations order). Sized with slack
  // so exec/ needs no core/ include; the engine stamps one count per fired
  // rule per query and the server aggregates them into /metrics.
  static constexpr size_t kMaxRules = 16;
  uint64_t rule_fired[kMaxRules] = {};

  void Accumulate(const ExecStats& other);
};

// The EXPLAIN ANALYZE line an ExecStats counter prints on. The two
// untitled lines (kScan, kAccess) always print; a titled line prints only
// when one of its counters is non-zero.
enum class ExecLine : uint8_t { kScan, kAccess, kRank, kPruning, kBlockCache };

// One ExecStats counter.
struct ExecCounter {
  uint64_t ExecStats::*member;
  const char* name;             // ?explain=1 "exec" key
  ExecLine line;                // EXPLAIN ANALYZE line
  const char* label = nullptr;  // EXPLAIN ANALYZE name, when not `name`
  bool brief = false;  // also in every /search body's three-key "exec"
};

// Every ExecStats counter, in EXPLAIN ANALYZE order.
inline constexpr ExecCounter kExecCounters[] = {
    {&ExecStats::docs_visited, "docs_visited", ExecLine::kScan, nullptr, true},
    {&ExecStats::rows_built, "rows_built", ExecLine::kScan, nullptr, true},
    {&ExecStats::positions_scanned, "positions_scanned", ExecLine::kScan,
     nullptr, true},
    {&ExecStats::count_entries_scanned, "count_entries_scanned",
     ExecLine::kScan},
    {&ExecStats::blocks_decoded, "blocks_decoded", ExecLine::kAccess},
    {&ExecStats::gallop_probes, "gallop_probes", ExecLine::kAccess},
    {&ExecStats::skip_calls, "skip_calls", ExecLine::kAccess},
    {&ExecStats::skip_hits, "skip_hits", ExecLine::kAccess},
    {&ExecStats::rank_heap_ops, "rank_heap_ops", ExecLine::kRank, "heap_ops"},
    {&ExecStats::topk_sorted_accesses, "topk_sorted_accesses", ExecLine::kRank,
     "sorted_accesses"},
    {&ExecStats::docs_scored, "docs_scored", ExecLine::kRank},
    {&ExecStats::docs_pruned, "docs_pruned", ExecLine::kRank},
    {&ExecStats::topk_blocks_skipped, "topk_blocks_skipped",
     ExecLine::kPruning, "blocks_skipped"},
    {&ExecStats::topk_blocks_decoded, "topk_blocks_decoded",
     ExecLine::kPruning, "blocks_decoded"},
    {&ExecStats::topk_ceiling_probes, "topk_ceiling_probes",
     ExecLine::kPruning, "ceiling_probes"},
    {&ExecStats::topk_threshold_updates, "topk_threshold_updates",
     ExecLine::kPruning, "threshold_updates"},
    {&ExecStats::block_cache_hits, "block_cache_hits", ExecLine::kBlockCache,
     "hits"},
    {&ExecStats::block_cache_misses, "block_cache_misses",
     ExecLine::kBlockCache, "misses"},
    {&ExecStats::block_cache_evictions, "block_cache_evictions",
     ExecLine::kBlockCache, "evictions"},
    {&ExecStats::packed_payload_decodes, "packed_payload_decodes",
     ExecLine::kBlockCache, "payload_decodes"},
};

// A field without a row fails here.
static_assert(sizeof(ExecStats) ==
                  (std::size(kExecCounters) + ExecStats::kMaxRules) *
                      sizeof(uint64_t),
              "every ExecStats counter needs a kExecCounters row");

inline void ExecStats::Accumulate(const ExecStats& other) {
  for (const ExecCounter& counter : kExecCounters) {
    this->*counter.member += other.*counter.member;
  }
  for (size_t i = 0; i < kMaxRules; ++i) {
    rule_fired[i] += other.rule_fired[i];
  }
}

// Shared evaluation environment.
struct EvalEnv {
  index::StatsView stats;
  const sa::ScoringScheme* scheme = nullptr;  // may be null (no scoring ops)
  sa::QueryContext query_ctx;
  ExecStats* counters = nullptr;
  // Documents the scans visit: the whole index, or one segment's range.
  index::DocRange range;

  EvalEnv(const index::InvertedIndex* index, const sa::ScoringScheme* s,
          sa::QueryContext qctx, const index::StatsOverlay* overlay,
          ExecStats* c, index::DocRange r = {})
      : stats(index, overlay), scheme(s), query_ctx(qctx), counters(c),
        range(r) {}
};

class DocOperator {
 public:
  virtual ~DocOperator() = default;

  // Positions the operator at the first document with at least one output
  // row whose id is >= min_doc. If the current document already satisfies
  // that, stays (without disturbing row iteration). Returns false when no
  // such document exists; doc() is then kInvalidDoc, and an operator that
  // has run out stays out.
  bool AdvanceDoc(DocId min_doc) {
    if (current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      return true;  // the buffered document is still valid
    }
    current_doc_ = Seek(min_doc);
    return current_doc_ != kInvalidDoc;
  }

  // Valid after AdvanceDoc returned true.
  DocId doc() const { return current_doc_; }

  // Produces the next row of the current document, or returns false.
  // Moving to a new document resets iteration.
  virtual bool NextRow(ma::Tuple* out) = 0;

 private:
  // Moves to the first document >= min_doc with at least one output row
  // (the buffered document, if any, is below min_doc) and returns it, or
  // kInvalidDoc when there is none. Row iteration restarts there.
  virtual DocId Seek(DocId min_doc) = 0;

  DocId current_doc_ = kInvalidDoc;
};

using DocOperatorPtr = std::unique_ptr<DocOperator>;

// Builds the operator tree for a resolved plan. The plan must outlive the
// returned operator (operators reference its schemas and expressions).
StatusOr<DocOperatorPtr> BuildOperator(const ma::PlanNode& node,
                                       EvalEnv* env);

}  // namespace graft::exec

#endif  // GRAFT_EXEC_OPERATORS_H_
