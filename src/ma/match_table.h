// Materialized match tables (Section 3.2): ordered lists of match tuples.
// Tables are produced by the reference evaluator and consumed by tests and
// the score-consistency oracle. Rows and columns are both sequenced, and
// tables may contain duplicate rows (bag semantics).

#ifndef GRAFT_MA_MATCH_TABLE_H_
#define GRAFT_MA_MATCH_TABLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "ma/schema.h"
#include "ma/value.h"

namespace graft::ma {

struct MatchTable {
  Schema schema;
  std::vector<Tuple> rows;

  std::string ToString() const;
};

// Total order on values within one column (used by τ and by table
// comparison): positions ascend with ∅ last (∅ encodes as the max offset,
// so natural order suffices); counts ascend; scores compare by (a, b).
int CompareValue(const Value& left, const Value& right);
// Lexicographic (doc, values...) comparison.
int CompareTuple(const Tuple& left, const Tuple& right);

// True when the tables have identical schemas (column names/kinds) and
// identical row bags *as ordered lists*. Score cells compare with the given
// tolerance.
bool TablesEqual(const MatchTable& left, const MatchTable& right,
                 double score_tolerance = 1e-9);

// A ranked retrieval result.
struct ScoredDoc {
  DocId doc = kInvalidDoc;
  double score = 0.0;

  bool operator==(const ScoredDoc& other) const = default;
};

// Score descending, doc ascending: the order of every ranked result list.
inline bool RankedBefore(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

// Merges ranked lists, each already in RankedBefore order, into the global
// top-k (k == 0: every result): the merge of independently ranked streams
// shared by segment fan-out and router scatter-gather. A single list
// passes through truncated to k.
std::vector<ScoredDoc> MergeRanked(std::vector<std::vector<ScoredDoc>> partials,
                                   size_t k);

// Extracts ranked results from a table whose schema is a single score
// column holding finalized scores. Sorted by score descending, ties by doc
// ascending.
StatusOr<std::vector<ScoredDoc>> ExtractRankedResults(const MatchTable& table);

}  // namespace graft::ma

#endif  // GRAFT_MA_MATCH_TABLE_H_
