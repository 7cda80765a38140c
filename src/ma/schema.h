// Plan-node output schemas. The document column is implicit; every other
// column is named and typed. Position columns remember which query variable
// and keyword they materialize, which is what lets hosted α calls recover
// the paper's "column" argument (the keyword's statistics).

#ifndef GRAFT_MA_SCHEMA_H_
#define GRAFT_MA_SCHEMA_H_

#include <string>
#include <vector>

#include "index/types.h"
#include "mcalc/predicates.h"

namespace graft::ma {

// Plan column names. Every plan builder mints them here; a column's kind is
// known from the operator that made it, never parsed back from its name.
//   p<v>   variable v's positions (A)
//   c<v>   variable v's per-document occurrence count (CA, eager counting)
//   s<v>   variable v's column score (column-first folds)
//   cx<i>  the i-th count product formed at a join (eager aggregation)
//   s, cw  a row's score and its count weight (row-first folds)
//   score  the document's finalized score

// Appends rather than prepends: gcc 12 reports a spurious -Wrestrict on
// `"p" + std::to_string(n)`.
inline std::string NumberedColumn(std::string prefix, int n) {
  prefix += std::to_string(n);
  return prefix;
}
inline std::string PosColumn(mcalc::VarId var) {
  return NumberedColumn("p", var);
}
inline std::string CountColumn(mcalc::VarId var) {
  return NumberedColumn("c", var);
}
inline std::string ScoreColumn(mcalc::VarId var) {
  return NumberedColumn("s", var);
}
inline std::string JoinCountColumn(int i) { return NumberedColumn("cx", i); }
inline constexpr char kRowScoreColumn[] = "s";
inline constexpr char kRowWeightColumn[] = "cw";
inline constexpr char kFinalScoreColumn[] = "score";

struct Column {
  enum class Kind { kPos, kScore, kCount };

  Kind kind = Kind::kPos;
  std::string name;

  // kPos: the bound query variable and its keyword.
  mcalc::VarId var = -1;
  // kPos and kCount: the keyword whose statistics α consults.
  TermId term = kInvalidTerm;
  std::string keyword;

  static Column Pos(std::string name, mcalc::VarId var, TermId term,
                    std::string keyword) {
    Column c;
    c.kind = Kind::kPos;
    c.name = std::move(name);
    c.var = var;
    c.term = term;
    c.keyword = std::move(keyword);
    return c;
  }
  static Column Score(std::string name) {
    Column c;
    c.kind = Kind::kScore;
    c.name = std::move(name);
    return c;
  }
  static Column CountCol(std::string name, TermId term, std::string keyword) {
    Column c;
    c.kind = Kind::kCount;
    c.name = std::move(name);
    c.term = term;
    c.keyword = std::move(keyword);
    return c;
  }
};

struct Schema {
  std::vector<Column> columns;

  // Index of the named column, or -1.
  int Find(const std::string& name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  // Index of the position column bound to `var`, or -1.
  int FindVar(mcalc::VarId var) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].kind == Column::Kind::kPos && columns[i].var == var) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  std::string ToString() const {
    std::string out = "(d";
    for (const Column& c : columns) {
      out += ", " + c.name;
    }
    out += ")";
    return out;
  }
};

}  // namespace graft::ma

#endif  // GRAFT_MA_SCHEMA_H_
