#include "ma/match_table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace graft::ma {

std::string Value::ToString() const {
  char buf[64];
  switch (kind) {
    case Kind::kPos:
      if (pos == kEmptyOffset) return "∅";
      std::snprintf(buf, sizeof(buf), "%u", pos);
      return buf;
    case Kind::kCount:
      std::snprintf(buf, sizeof(buf), "#%llu",
                    static_cast<unsigned long long>(count));
      return buf;
    case Kind::kScore:
      return score.ToString();
  }
  return "?";
}

std::string MatchTable::ToString() const {
  std::string out = schema.ToString() + "\n";
  for (const Tuple& row : rows) {
    out += "  ⟨" + std::to_string(row.doc);
    for (const Value& value : row.values) {
      out += ", " + value.ToString();
    }
    out += "⟩\n";
  }
  return out;
}

int CompareValue(const Value& left, const Value& right) {
  if (left.kind != right.kind) {
    return left.kind < right.kind ? -1 : 1;
  }
  switch (left.kind) {
    case Value::Kind::kPos:
      if (left.pos != right.pos) return left.pos < right.pos ? -1 : 1;
      return 0;
    case Value::Kind::kCount:
      if (left.count != right.count) return left.count < right.count ? -1 : 1;
      return 0;
    case Value::Kind::kScore: {
      if (left.score.a != right.score.a) {
        return left.score.a < right.score.a ? -1 : 1;
      }
      if (left.score.b != right.score.b) {
        return left.score.b < right.score.b ? -1 : 1;
      }
      return 0;
    }
  }
  return 0;
}

int CompareTuple(const Tuple& left, const Tuple& right) {
  if (left.doc != right.doc) return left.doc < right.doc ? -1 : 1;
  const size_t n = std::min(left.values.size(), right.values.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = CompareValue(left.values[i], right.values[i]);
    if (c != 0) return c;
  }
  if (left.values.size() != right.values.size()) {
    return left.values.size() < right.values.size() ? -1 : 1;
  }
  return 0;
}

bool TablesEqual(const MatchTable& left, const MatchTable& right,
                 double score_tolerance) {
  if (left.schema.columns.size() != right.schema.columns.size()) return false;
  for (size_t i = 0; i < left.schema.columns.size(); ++i) {
    if (left.schema.columns[i].name != right.schema.columns[i].name ||
        left.schema.columns[i].kind != right.schema.columns[i].kind) {
      return false;
    }
  }
  if (left.rows.size() != right.rows.size()) return false;
  for (size_t r = 0; r < left.rows.size(); ++r) {
    const Tuple& a = left.rows[r];
    const Tuple& b = right.rows[r];
    if (a.doc != b.doc || a.values.size() != b.values.size()) return false;
    for (size_t i = 0; i < a.values.size(); ++i) {
      const Value& x = a.values[i];
      const Value& y = b.values[i];
      if (x.kind != y.kind) return false;
      switch (x.kind) {
        case Value::Kind::kPos:
          if (x.pos != y.pos) return false;
          break;
        case Value::Kind::kCount:
          if (x.count != y.count) return false;
          break;
        case Value::Kind::kScore:
          if (!x.score.ApproxEquals(y.score, score_tolerance)) return false;
          break;
      }
    }
  }
  return true;
}

StatusOr<std::vector<ScoredDoc>> ExtractRankedResults(
    const MatchTable& table) {
  if (table.schema.columns.size() != 1 ||
      table.schema.columns[0].kind != Column::Kind::kScore) {
    return Status::InvalidArgument(
        "ranked extraction expects a single score column, got " +
        table.schema.ToString());
  }
  std::vector<ScoredDoc> results;
  results.reserve(table.rows.size());
  for (const Tuple& row : table.rows) {
    results.push_back(ScoredDoc{row.doc, row.values[0].score.a});
  }
  std::sort(results.begin(), results.end(), RankedBefore);
  return results;
}

std::vector<ScoredDoc> MergeRanked(std::vector<std::vector<ScoredDoc>> partials,
                                   size_t k) {
  if (partials.size() == 1) {
    std::vector<ScoredDoc> only = std::move(partials[0]);
    if (k > 0 && only.size() > k) only.resize(k);
    return only;
  }
  size_t total = 0;
  for (const auto& partial : partials) {
    total += partial.size();
  }
  std::vector<ScoredDoc> merged;
  if (k == 0) {
    // Full-sort merge: concatenate and sort once (O(n log n) with tiny
    // constants beats heap-merging full result sets).
    merged.reserve(total);
    for (const auto& partial : partials) {
      merged.insert(merged.end(), partial.begin(), partial.end());
    }
    std::sort(merged.begin(), merged.end(), RankedBefore);
    return merged;
  }

  struct Head {
    const std::vector<ScoredDoc>* list;
    size_t next;
  };
  // Max-heap on the best remaining entry of each list.
  const auto heap_after = [](const Head& a, const Head& b) {
    return RankedBefore((*b.list)[b.next], (*a.list)[a.next]);
  };
  std::vector<Head> heap;
  heap.reserve(partials.size());
  for (const auto& partial : partials) {
    if (!partial.empty()) {
      heap.push_back(Head{&partial, 0});
    }
  }
  std::make_heap(heap.begin(), heap.end(), heap_after);
  merged.reserve(std::min(k, total));
  while (!heap.empty() && merged.size() < k) {
    std::pop_heap(heap.begin(), heap.end(), heap_after);
    Head head = heap.back();
    heap.pop_back();
    merged.push_back((*head.list)[head.next]);
    if (++head.next < head.list->size()) {
      heap.push_back(head);
      std::push_heap(heap.begin(), heap.end(), heap_after);
    }
  }
  return merged;
}

}  // namespace graft::ma
