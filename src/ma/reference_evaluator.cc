#include "ma/reference_evaluator.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

namespace graft::ma {

StatusOr<MatchTable> ReferenceEvaluator::Evaluate(
    const PlanNode& root) const {
  return EvaluateNode(root);
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluateNode(
    const PlanNode& node) const {
  switch (node.kind) {
    case OpKind::kAtom: return EvaluateAtom(node);
    case OpKind::kPreCountAtom: return EvaluatePreCount(node);
    case OpKind::kJoin: return EvaluateJoin(node);
    case OpKind::kOuterUnion: return EvaluateUnion(node);
    case OpKind::kSelect: return EvaluateSelect(node);
    case OpKind::kProject: return EvaluateProject(node);
    case OpKind::kAntiJoin: return EvaluateAntiJoin(node);
    case OpKind::kGroup: return EvaluateGroup(node);
    case OpKind::kAltElim: return EvaluateAltElim(node);
    case OpKind::kSort: return EvaluateSort(node);
  }
  return Status::Internal("unknown plan node kind");
}

sa::DocContext ReferenceEvaluator::MakeDocContext(DocId doc) const {
  sa::DocContext ctx;
  ctx.doc = doc;
  ctx.length = stats_.DocLength(doc);
  ctx.collection_size = stats_.CollectionSize();
  ctx.avg_doc_length = stats_.AverageDocLength();
  return ctx;
}

std::vector<sa::ColumnContext> ReferenceEvaluator::MakeColumnContexts(
    const Schema& schema, DocId doc) const {
  std::vector<sa::ColumnContext> contexts(schema.columns.size());
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    const Column& column = schema.columns[i];
    if (column.kind == Column::Kind::kScore ||
        column.term == kInvalidTerm) {
      continue;
    }
    contexts[i].term = column.term;
    contexts[i].doc_freq = stats_.DocFreq(column.term);
    contexts[i].tf_in_doc = TermFreqInDoc(column.term, doc);
  }
  return contexts;
}

uint32_t ReferenceEvaluator::TermFreqInDoc(TermId term, DocId doc) const {
  const index::PostingList& list = stats_.index().postings(term);
  TfProbe& probe =
      tf_probes_.try_emplace(term, TfProbe{index::PostingCursor(&list), 0})
          .first->second;
  if (doc < probe.target) {
    probe.cursor = index::PostingCursor(&list);  // backwards: restart
  }
  probe.target = doc;
  index::PostingCursor& cursor = probe.cursor;
  cursor.SkipTo(doc);
  return !cursor.AtEnd() && cursor.doc() == doc ? cursor.tf() : 0;
}

Status ReferenceEvaluator::ApplyPredicates(
    const std::vector<mcalc::PredicateCall>& predicates, const Schema& schema,
    const Tuple& row, bool* keep) const {
  *keep = true;
  for (const mcalc::PredicateCall& call : predicates) {
    auto result = mcalc::EvaluatePredicate(
        call, [&schema, &row](mcalc::VarId var) -> Offset {
          const int idx = schema.FindVar(var);
          return idx < 0 ? kEmptyOffset : row.values[idx].pos;
        });
    if (!result.ok()) return result.status();
    if (!*result) {
      *keep = false;
      return Status::Ok();
    }
  }
  return Status::Ok();
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluateAtom(
    const PlanNode& node) const {
  MatchTable table;
  table.schema = node.schema;
  if (node.term == kInvalidTerm) {
    return table;  // Unknown keyword: empty scan.
  }
  for (index::PostingCursor cursor(&stats_.index().postings(node.term));
       !cursor.AtEnd(); cursor.Next()) {
    const DocId doc = cursor.doc();
    for (const Offset offset : cursor.offsets()) {
      Tuple row;
      row.doc = doc;
      row.values.push_back(Value::Pos(offset));
      table.rows.push_back(std::move(row));
    }
  }
  return table;
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluatePreCount(
    const PlanNode& node) const {
  MatchTable table;
  table.schema = node.schema;
  if (node.term == kInvalidTerm) {
    return table;
  }
  for (index::PostingCursor cursor(&stats_.index().postings(node.term));
       !cursor.AtEnd(); cursor.Next()) {
    Tuple row;
    row.doc = cursor.doc();
    row.values.push_back(Value::Count(cursor.tf()));
    table.rows.push_back(std::move(row));
  }
  return table;
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluateJoin(
    const PlanNode& node) const {
  GRAFT_ASSIGN_OR_RETURN(const MatchTable left,
                         EvaluateNode(*node.children[0]));
  GRAFT_ASSIGN_OR_RETURN(const MatchTable right,
                         EvaluateNode(*node.children[1]));
  MatchTable table;
  table.schema = node.schema;

  // Merge on doc (both inputs are doc-ordered); cross product within doc.
  size_t li = 0;
  size_t ri = 0;
  while (li < left.rows.size() && ri < right.rows.size()) {
    const DocId ld = left.rows[li].doc;
    const DocId rd = right.rows[ri].doc;
    if (ld < rd) {
      ++li;
      continue;
    }
    if (rd < ld) {
      ++ri;
      continue;
    }
    size_t lend = li;
    while (lend < left.rows.size() && left.rows[lend].doc == ld) ++lend;
    size_t rend = ri;
    while (rend < right.rows.size() && right.rows[rend].doc == ld) ++rend;
    for (size_t i = li; i < lend; ++i) {
      for (size_t j = ri; j < rend; ++j) {
        Tuple row;
        row.doc = ld;
        row.values = left.rows[i].values;
        row.values.insert(row.values.end(), right.rows[j].values.begin(),
                          right.rows[j].values.end());
        bool keep = true;
        GRAFT_RETURN_IF_ERROR(
            ApplyPredicates(node.predicates, table.schema, row, &keep));
        if (keep) {
          table.rows.push_back(std::move(row));
        }
      }
    }
    li = lend;
    ri = rend;
  }
  return table;
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluateUnion(
    const PlanNode& node) const {
  MatchTable table;
  table.schema = node.schema;

  struct Tagged {
    Tuple row;
    size_t child;
    size_t index;
  };
  std::vector<Tagged> tagged;
  for (size_t c = 0; c < node.children.size(); ++c) {
    GRAFT_ASSIGN_OR_RETURN(const MatchTable child,
                           EvaluateNode(*node.children[c]));
    // Map output column -> child column index (-1: pad with ∅).
    std::vector<int> mapping(table.schema.columns.size(), -1);
    for (size_t o = 0; o < table.schema.columns.size(); ++o) {
      const Column& out = table.schema.columns[o];
      mapping[o] = out.kind == Column::Kind::kPos
                       ? child.schema.FindVar(out.var)
                       : child.schema.Find(out.name);
    }
    for (size_t r = 0; r < child.rows.size(); ++r) {
      Tuple row;
      row.doc = child.rows[r].doc;
      row.values.reserve(table.schema.columns.size());
      for (size_t o = 0; o < table.schema.columns.size(); ++o) {
        if (mapping[o] >= 0) {
          row.values.push_back(child.rows[r].values[mapping[o]]);
        } else if (table.schema.columns[o].kind == Column::Kind::kCount) {
          row.values.push_back(Value::Count(0));  // 0 encodes ∅.
        } else {
          row.values.push_back(Value::EmptyPos());
        }
      }
      tagged.push_back(Tagged{std::move(row), c, r});
    }
  }
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const Tagged& a, const Tagged& b) {
                     if (a.row.doc != b.row.doc) return a.row.doc < b.row.doc;
                     if (a.child != b.child) return a.child < b.child;
                     return a.index < b.index;
                   });
  table.rows.reserve(tagged.size());
  for (Tagged& t : tagged) {
    table.rows.push_back(std::move(t.row));
  }
  return table;
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluateSelect(
    const PlanNode& node) const {
  GRAFT_ASSIGN_OR_RETURN(MatchTable input, EvaluateNode(*node.children[0]));
  MatchTable table;
  table.schema = node.schema;
  for (Tuple& row : input.rows) {
    bool keep = true;
    GRAFT_RETURN_IF_ERROR(
        ApplyPredicates(node.predicates, table.schema, row, &keep));
    if (keep) {
      table.rows.push_back(std::move(row));
    }
  }
  return table;
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluateProject(
    const PlanNode& node) const {
  GRAFT_ASSIGN_OR_RETURN(const MatchTable input,
                         EvaluateNode(*node.children[0]));
  MatchTable table;
  table.schema = node.schema;

  // Precompile item accessors.
  struct Compiled {
    int source = -1;
    std::vector<int> count_product;
    std::optional<CompiledScoreExpr> expr;
    bool finalize = false;
  };
  std::vector<Compiled> compiled;
  compiled.reserve(node.items.size());
  for (const ProjectItem& item : node.items) {
    Compiled c;
    if (!item.source.empty()) {
      c.source = input.schema.Find(item.source);
      if (c.source < 0) {
        return Status::Internal("unresolved projection source: " +
                                item.source);
      }
    } else if (!item.count_product.empty()) {
      for (const std::string& source : item.count_product) {
        c.count_product.push_back(input.schema.Find(source));
      }
    } else {
      if (scheme_ == nullptr) {
        return Status::FailedPrecondition(
            "plan hosts scoring operators but no scheme was provided");
      }
      GRAFT_ASSIGN_OR_RETURN(
          auto compiled_expr,
          CompiledScoreExpr::Compile(*item.expr, input.schema));
      c.expr.emplace(std::move(compiled_expr));
      c.finalize = item.finalize;
    }
    compiled.push_back(std::move(c));
  }

  DocId current_doc = kInvalidDoc;
  sa::DocContext doc_ctx;
  std::vector<sa::ColumnContext> col_ctx;
  for (const Tuple& row : input.rows) {
    if (row.doc != current_doc) {
      current_doc = row.doc;
      doc_ctx = MakeDocContext(current_doc);
      col_ctx = MakeColumnContexts(input.schema, current_doc);
    }
    Tuple out;
    out.doc = row.doc;
    out.values.reserve(compiled.size());
    for (const Compiled& c : compiled) {
      if (c.source >= 0) {
        out.values.push_back(row.values[c.source]);
      } else if (!c.count_product.empty()) {
        uint64_t product = 1;
        for (const int idx : c.count_product) {
          product *= std::max<uint64_t>(1, row.values[idx].count);
        }
        out.values.push_back(Value::Count(product));
      } else {
        sa::InternalScore score =
            c.expr->Evaluate(*scheme_, doc_ctx, col_ctx, row);
        if (c.finalize) {
          score = sa::InternalScore(
              scheme_->Finalize(doc_ctx, query_ctx_, score));
        }
        out.values.push_back(Value::Score(std::move(score)));
      }
    }
    table.rows.push_back(std::move(out));
  }
  return table;
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluateAntiJoin(
    const PlanNode& node) const {
  GRAFT_ASSIGN_OR_RETURN(MatchTable left, EvaluateNode(*node.children[0]));
  GRAFT_ASSIGN_OR_RETURN(const MatchTable right,
                         EvaluateNode(*node.children[1]));
  std::set<DocId> right_docs;
  for (const Tuple& row : right.rows) {
    right_docs.insert(row.doc);
  }
  MatchTable table;
  table.schema = node.schema;
  for (Tuple& row : left.rows) {
    if (right_docs.count(row.doc) == 0) {
      table.rows.push_back(std::move(row));
    }
  }
  return table;
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluateGroup(
    const PlanNode& node) const {
  if (!node.group.score_aggs.empty() && scheme_ == nullptr) {
    return Status::FailedPrecondition(
        "plan hosts ⊕ aggregation but no scheme was provided");
  }
  GRAFT_ASSIGN_OR_RETURN(const MatchTable input,
                         EvaluateNode(*node.children[0]));
  MatchTable table;
  table.schema = node.schema;

  const Schema& in_schema = input.schema;
  struct Agg {
    int input = -1;
    int scale = -1;
  };
  std::vector<Agg> aggs;
  for (const GroupSpec::ScoreAgg& agg : node.group.score_aggs) {
    Agg a;
    a.input = in_schema.Find(agg.input);
    a.scale = agg.scale_count.empty() ? -1 : in_schema.Find(agg.scale_count);
    aggs.push_back(a);
  }

  // Input is doc-ordered; each doc run folds into one row, its rows in
  // match-table order (which matters for non-commutative ⊕).
  size_t i = 0;
  while (i < input.rows.size()) {
    const DocId doc = input.rows[i].doc;
    size_t end = i;
    while (end < input.rows.size() && input.rows[end].doc == doc) ++end;

    std::vector<sa::InternalScore> scores(aggs.size());
    for (size_t r = i; r < end; ++r) {
      const Tuple& row = input.rows[r];
      for (size_t a = 0; a < aggs.size(); ++a) {
        sa::InternalScore contribution = row.values[aggs[a].input].score;
        if (aggs[a].scale >= 0) {
          // Counts of 0 encode ∅ (padded column) and weigh as 1.
          const uint64_t weight =
              std::max<uint64_t>(1, row.values[aggs[a].scale].count);
          if (weight != 1) {
            contribution = scheme_->Scale(contribution, weight);
          }
        }
        scores[a] = r == i ? std::move(contribution)
                           : scheme_->Alt(scores[a], contribution);
      }
    }

    Tuple out;
    out.doc = doc;
    out.values.reserve(table.schema.columns.size());
    for (sa::InternalScore& score : scores) {
      out.values.push_back(Value::Score(std::move(score)));
    }
    if (!node.group.count_output.empty()) {
      out.values.push_back(Value::Count(end - i));
    }
    table.rows.push_back(std::move(out));
    i = end;
  }
  return table;
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluateAltElim(
    const PlanNode& node) const {
  GRAFT_ASSIGN_OR_RETURN(MatchTable input, EvaluateNode(*node.children[0]));
  MatchTable table;
  table.schema = node.schema;
  DocId last = kInvalidDoc;
  for (Tuple& row : input.rows) {
    if (row.doc != last) {
      last = row.doc;
      table.rows.push_back(std::move(row));
    }
  }
  return table;
}

StatusOr<MatchTable> ReferenceEvaluator::EvaluateSort(
    const PlanNode& node) const {
  GRAFT_ASSIGN_OR_RETURN(MatchTable table, EvaluateNode(*node.children[0]));
  // τ sorts by the canonical column order — position columns in ascending
  // variable order, then others in name order — so the match-table row
  // order is independent of join order (score isolation requires the table,
  // not the plan, to define the order ⊕ folds in).
  std::vector<size_t> perm;
  perm.reserve(table.schema.columns.size());
  for (size_t i = 0; i < table.schema.columns.size(); ++i) perm.push_back(i);
  const Schema& schema = table.schema;
  std::stable_sort(perm.begin(), perm.end(), [&schema](size_t a, size_t b) {
    const Column& ca = schema.columns[a];
    const Column& cb = schema.columns[b];
    const bool pa = ca.kind == Column::Kind::kPos;
    const bool pb = cb.kind == Column::Kind::kPos;
    if (pa != pb) return pa;  // positions first
    if (pa && pb) return ca.var < cb.var;
    return ca.name < cb.name;
  });
  std::stable_sort(table.rows.begin(), table.rows.end(),
                   [&perm](const Tuple& a, const Tuple& b) {
                     if (a.doc != b.doc) return a.doc < b.doc;
                     for (const size_t i : perm) {
                       const int c = CompareValue(a.values[i], b.values[i]);
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  return table;
}

}  // namespace graft::ma
