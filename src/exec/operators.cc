#include "exec/operators.h"

#include <algorithm>
#include <optional>

#include "ma/match_table.h"

namespace graft::exec {

namespace {

using ma::Column;
using ma::OpKind;
using ma::PlanNode;
using ma::Schema;
using ma::Tuple;
using ma::Value;

// Predicate compiled against an output schema: direct evaluator call plus
// precomputed column indexes. ∅ positions are dropped (Section 3.1).
struct CompiledPredicate {
  const mcalc::PredicateDef* def = nullptr;
  std::vector<int> column_idx;
  std::vector<int64_t> params;

  bool Eval(const Tuple& row) const {
    Offset positions[64];
    size_t count = 0;
    for (const int idx : column_idx) {
      const Offset offset = row.values[idx].pos;
      if (offset != kEmptyOffset) {
        positions[count++] = offset;
      }
    }
    return def->evaluator(std::span<const Offset>(positions, count), params);
  }
};

StatusOr<std::vector<CompiledPredicate>> CompilePredicates(
    const std::vector<mcalc::PredicateCall>& calls, const Schema& schema) {
  std::vector<CompiledPredicate> compiled;
  compiled.reserve(calls.size());
  for (const mcalc::PredicateCall& call : calls) {
    CompiledPredicate p;
    p.def = mcalc::PredicateRegistry::Global().Lookup(call.name);
    if (p.def == nullptr) {
      return Status::NotFound("unknown predicate: " + call.name);
    }
    for (const mcalc::VarId var : call.vars) {
      const int idx = schema.FindVar(var);
      if (idx < 0) {
        return Status::Internal("predicate variable not in schema: p" +
                                std::to_string(var));
      }
      p.column_idx.push_back(idx);
    }
    p.params = call.params;
    compiled.push_back(std::move(p));
  }
  return compiled;
}

// cursor.SkipTo under counter accounting: galloping probes, skip calls,
// and skip hits (a hit = the gallop leapfrogged at least one posting
// beyond sequential advance).
void CountedSkipTo(index::PostingCursor* cursor, DocId target,
                   ExecStats* counters) {
  if (counters == nullptr) {
    cursor->SkipTo(target);
    return;
  }
  const size_t before = cursor->position();
  cursor->SkipTo(target, &counters->gallop_probes);
  ++counters->skip_calls;
  if (cursor->position() > before + 1) {
    ++counters->skip_hits;
  }
}

// Lazily materializes the current document's rows of a child operator (for
// join rescans). Only pulls what the consumer touches; row storage is
// pooled across documents so steady-state pulls allocate nothing.
class RowBuffer {
 public:
  void Attach(DocOperator* op) {
    op_ = op;
    filled_ = 0;
    exhausted_ = false;
  }

  const Tuple* Get(size_t i) {
    while (filled_ <= i && !exhausted_) {
      if (rows_.size() <= filled_) {
        rows_.emplace_back();
      }
      if (op_->NextRow(&rows_[filled_])) {
        ++filled_;
      } else {
        exhausted_ = true;
      }
    }
    return i < filled_ ? &rows_[i] : nullptr;
  }

 private:
  DocOperator* op_ = nullptr;
  std::vector<Tuple> rows_;
  size_t filled_ = 0;
  bool exhausted_ = true;
};

// ------------------------------------------------------------ LeafScan --
// The stepping every index scan shares: a counted SkipTo to the target,
// the at-end test, the leaf's read of the posting under the cursor
// (Leaf::Read, bound at compile time), and the pre-advance so the next
// SkipTo starts beyond it. Leaves keep only what they read and emit.
template <typename Leaf>
class LeafScan : public DocOperator {
 public:
  LeafScan(const index::PostingList* list, index::DocRange range,
           ExecStats* counters)
      : counters_(counters), cursor_(list, range) {}

 protected:
  ExecStats* const counters_;

 private:
  DocId Seek(DocId min_doc) final {
    CountedSkipTo(&cursor_, min_doc, counters_);
    if (cursor_.AtEnd()) {
      return kInvalidDoc;
    }
    const DocId doc = cursor_.doc();
    static_cast<Leaf*>(this)->Read(&cursor_);
    cursor_.Next();
    return doc;
  }

  index::PostingCursor cursor_;
};

// A(k): one row per term position, doc-ordered, galloping SkipTo.
class ScanOp final : public LeafScan<ScanOp> {
 public:
  using LeafScan::LeafScan;

  void Read(index::PostingCursor* cursor) {
    offsets_ = cursor->offsets();
    if (counters_ != nullptr) {
      ++counters_->blocks_decoded;
    }
    next_offset_ = 0;
  }

  bool NextRow(Tuple* out) override {
    if (next_offset_ >= offsets_.size()) {
      return false;
    }
    if (counters_ != nullptr) {
      ++counters_->positions_scanned;
    }
    out->doc = doc();
    out->values.clear();
    out->values.push_back(Value::Pos(offsets_[next_offset_++]));
    return true;
  }

 private:
  std::span<const Offset> offsets_;
  size_t next_offset_ = 0;
};

// A leaf that emits one row per document from the keyword's count there:
// Leaf::Count reads the count, Leaf::Emit fills the row's values. By
// default the count is the posting's tf from the term-document arrays
// (pre-counting: O(1) per doc, no position memory touched) and the row is
// that count alone.
template <typename Leaf>
class CountScan : public LeafScan<Leaf> {
 public:
  using LeafScan<Leaf>::LeafScan;

  void Read(index::PostingCursor* cursor) {
    count_ = static_cast<Leaf*>(this)->Count(cursor);
    emitted_ = false;
  }

  uint32_t Count(index::PostingCursor* cursor) {
    if (this->counters_ != nullptr) {
      ++this->counters_->count_entries_scanned;
    }
    return cursor->tf();
  }

  void Emit(Tuple* out) { out->values.push_back(Value::Count(count_)); }

  bool NextRow(Tuple* out) final {
    if (emitted_) {
      return false;
    }
    emitted_ = true;
    out->doc = this->doc();
    out->values.clear();
    static_cast<Leaf*>(this)->Emit(out);
    return true;
  }

 protected:
  uint32_t count_ = 0;

 private:
  bool emitted_ = false;
};

// CA(k) (pre-count).
class PreCountScanOp final : public CountScan<PreCountScanOp> {
 public:
  using CountScan::CountScan;
};

// γ_{d|c:COUNT}(π_d(A(k))) (classical eager counting): the count is
// produced by iterating the document's position list — same output as
// pre-counting, but the position memory is walked.
class EagerCountScanOp final : public CountScan<EagerCountScanOp> {
 public:
  using CountScan::CountScan;

  uint32_t Count(index::PostingCursor* cursor) {
    // Walk the offsets (the "π_d then COUNT" of the logical rewrite); the
    // checksum forces the position memory to actually be read.
    const std::span<const Offset> offsets = cursor->offsets();
    for (const Offset offset : offsets) {
      checksum_ += offset;
    }
    if (counters_ != nullptr) {
      counters_->positions_scanned += offsets.size();
      ++counters_->blocks_decoded;
    }
    return static_cast<uint32_t>(offsets.size());
  }

 private:
  uint64_t checksum_ = 0;
};

// ----------------------------------------------- FusedScoredCountScan --
// Physical fusion of the aggregated pre-count leaf pattern
// π{s := α⊗(c) ⊗ c, c}(CA(k)): one operator emits the keyword's
// per-document ⟨column score, count⟩ pair straight from the term-document
// arrays — no intermediate tuples, no statistics lookups (tf is the
// cursor's count; df is a constant).
class FusedScoredCountScan final : public CountScan<FusedScoredCountScan> {
 public:
  FusedScoredCountScan(const index::PostingList* list, TermId term,
                       EvalEnv* env)
      : CountScan(list, env->range, env->counters), env_(env) {
    col_.term = term;
    col_.doc_freq = env->stats.DocFreq(term);
    doc_ctx_.collection_size = env->stats.CollectionSize();
    doc_ctx_.avg_doc_length = env->stats.AverageDocLength();
  }

  void Emit(Tuple* out) {
    doc_ctx_.doc = doc();
    doc_ctx_.length = env_->stats.DocLength(doc());
    col_.tf_in_doc = count_;
    sa::InternalScore score =
        env_->scheme->Init(doc_ctx_, col_, /*offset=*/0);
    if (count_ > 1) {
      score = env_->scheme->Scale(score, count_);
    }
    out->values.push_back(Value::Score(std::move(score)));
    out->values.push_back(Value::Count(count_));
  }

 private:
  EvalEnv* env_;
  sa::DocContext doc_ctx_;
  sa::ColumnContext col_;
};

// Scan over a keyword absent from the index: empty.
class EmptyOp final : public DocOperator {
 public:
  bool NextRow(Tuple*) override { return false; }

 private:
  DocId Seek(DocId) override { return kInvalidDoc; }
};

// --------------------------------------------------------------- JoinOp --
// Natural join on d: leapfrog alignment (zig-zag) plus a lazy odometer
// over the two sides' rows with residual predicates.
class JoinOp final : public DocOperator {
 public:
  JoinOp(DocOperatorPtr left, DocOperatorPtr right,
         std::vector<CompiledPredicate> predicates, ExecStats* counters)
      : left_(std::move(left)),
        right_(std::move(right)),
        predicates_(std::move(predicates)),
        counters_(counters) {}

  bool NextRow(Tuple* out) override {
    if (combo_deferred_) {
      combo_deferred_ = false;
      FindCombo();
    }
    if (!pending_) {
      return false;
    }
    std::swap(*out, pending_row_);  // both sides keep their capacity
    pending_ = false;
    ++ri_;
    FindCombo();
    return true;
  }

 private:
  DocId Seek(DocId min_doc) override {
    DocId target = min_doc;
    while (left_->AdvanceDoc(target)) {
      const DocId d = left_->doc();
      if (!right_->AdvanceDoc(d)) {
        return kInvalidDoc;
      }
      if (right_->doc() != d) {
        target = right_->doc();
        continue;
      }
      // Aligned. With residual predicates we must verify that at least one
      // combination survives; without them alignment alone guarantees a
      // row, so the odometer is deferred until someone actually asks — an
      // outer join level that skips this document never pays for its rows.
      left_rows_.Attach(left_.get());
      right_rows_.Attach(right_.get());
      li_ = 0;
      ri_ = 0;
      if (predicates_.empty()) {
        pending_ = false;
        combo_deferred_ = true;
        return d;
      }
      combo_deferred_ = false;
      if (FindCombo()) {
        return d;
      }
      target = d + 1;
    }
    return kInvalidDoc;
  }

  // Scans the odometer from (li_, ri_) for the next passing combination;
  // assembles it in pending_row_ (storage reused across combinations).
  bool FindCombo() {
    pending_ = false;
    while (true) {
      const Tuple* lrow = left_rows_.Get(li_);
      if (lrow == nullptr) {
        return false;
      }
      const Tuple* rrow = right_rows_.Get(ri_);
      if (rrow == nullptr) {
        ++li_;
        ri_ = 0;
        continue;
      }
      pending_row_.doc = lrow->doc;
      pending_row_.values.clear();
      pending_row_.values.reserve(lrow->values.size() + rrow->values.size());
      pending_row_.values.insert(pending_row_.values.end(),
                                 lrow->values.begin(), lrow->values.end());
      pending_row_.values.insert(pending_row_.values.end(),
                                 rrow->values.begin(), rrow->values.end());
      bool pass = true;
      for (const CompiledPredicate& pred : predicates_) {
        if (!pred.Eval(pending_row_)) {
          pass = false;
          break;
        }
      }
      if (pass) {
        if (counters_ != nullptr) {
          ++counters_->rows_built;
        }
        pending_ = true;
        return true;
      }
      ++ri_;
    }
  }

  DocOperatorPtr left_;
  DocOperatorPtr right_;
  std::vector<CompiledPredicate> predicates_;
  RowBuffer left_rows_;
  RowBuffer right_rows_;
  size_t li_ = 0;
  size_t ri_ = 0;
  bool pending_ = false;
  bool combo_deferred_ = false;
  Tuple pending_row_;
  ExecStats* counters_;
};

// -------------------------------------------------------------- UnionOp --
// ⊎: doc-merge of the children; rows of every child at the current doc,
// padded per the output schema (∅ positions, 0 counts).
class UnionOp final : public DocOperator {
 public:
  UnionOp(std::vector<DocOperatorPtr> children,
          std::vector<std::vector<int>> mappings, const Schema* schema)
      : children_(std::move(children)),
        mappings_(std::move(mappings)),
        schema_(schema) {}

  bool NextRow(Tuple* out) override {
    while (active_child_ < children_.size()) {
      const size_t c = active_child_;
      // An exhausted child reads kInvalidDoc, never the current doc.
      if (children_[c]->doc() != doc()) {
        ++active_child_;
        continue;
      }
      Tuple row;
      if (!children_[c]->NextRow(&row)) {
        ++active_child_;
        continue;
      }
      out->doc = doc();
      out->values.clear();
      out->values.reserve(schema_->columns.size());
      const std::vector<int>& mapping = mappings_[c];
      for (size_t o = 0; o < schema_->columns.size(); ++o) {
        if (mapping[o] >= 0) {
          out->values.push_back(row.values[mapping[o]]);
        } else if (schema_->columns[o].kind == Column::Kind::kCount) {
          out->values.push_back(Value::Count(0));
        } else {
          out->values.push_back(Value::EmptyPos());
        }
      }
      return true;
    }
    return false;
  }

 private:
  DocId Seek(DocId min_doc) override {
    DocId best = kInvalidDoc;
    for (const DocOperatorPtr& child : children_) {
      if (child->AdvanceDoc(min_doc)) {
        best = std::min(best, child->doc());
      }
    }
    active_child_ = 0;
    return best;
  }

  std::vector<DocOperatorPtr> children_;
  std::vector<std::vector<int>> mappings_;  // output col -> child col / -1
  const Schema* schema_;
  size_t active_child_ = 0;
};

// ------------------------------------------------------------- FilterOp --
class FilterOp final : public DocOperator {
 public:
  FilterOp(DocOperatorPtr child, std::vector<CompiledPredicate> predicates)
      : child_(std::move(child)), predicates_(std::move(predicates)) {}

  bool NextRow(Tuple* out) override {
    if (!pending_) {
      return false;
    }
    *out = std::move(pending_row_);
    pending_ = false;
    PullPassing();
    return true;
  }

 private:
  DocId Seek(DocId min_doc) override {
    DocId target = min_doc;
    while (child_->AdvanceDoc(target)) {
      if (PullPassing()) {
        return child_->doc();
      }
      target = child_->doc() + 1;
    }
    return kInvalidDoc;
  }

  bool PullPassing() {
    Tuple row;
    while (child_->NextRow(&row)) {
      bool pass = true;
      for (const CompiledPredicate& pred : predicates_) {
        if (!pred.Eval(row)) {
          pass = false;
          break;
        }
      }
      if (pass) {
        pending_row_ = std::move(row);
        pending_ = true;
        return true;
      }
    }
    pending_ = false;
    return false;
  }

  DocOperatorPtr child_;
  std::vector<CompiledPredicate> predicates_;
  bool pending_ = false;
  Tuple pending_row_;
};

// ------------------------------------------------------------ ProjectOp --
// π hosting score expressions (α, ⊘, ⊚, ⊗, ω) and count products.
class ProjectOp final : public DocOperator {
 public:
  struct Item {
    int source = -1;
    std::vector<int> count_product;
    std::optional<ma::CompiledScoreExpr> expr;
    bool finalize = false;
  };

  ProjectOp(DocOperatorPtr child, std::vector<Item> items,
            const Schema* input_schema, EvalEnv* env)
      : child_(std::move(child)),
        items_(std::move(items)),
        input_schema_(input_schema),
        env_(env) {
    // Document frequencies are per-term constants; prefetch. Per-document
    // tf is resolved with a monotone cursor per column (documents arrive
    // in increasing order, so each lookup is an amortized-O(1) gallop
    // instead of a binary search).
    base_col_ctx_.resize(input_schema_->columns.size());
    for (size_t i = 0; i < input_schema_->columns.size(); ++i) {
      const Column& column = input_schema_->columns[i];
      if (column.kind != Column::Kind::kScore &&
          column.term != kInvalidTerm) {
        base_col_ctx_[i].term = column.term;
        base_col_ctx_[i].doc_freq = env_->stats.DocFreq(column.term);
        tf_cursors_.emplace_back(
            i, index::PostingCursor(
                   &env_->stats.index().postings(column.term), env_->range));
      }
    }
    col_ctx_ = base_col_ctx_;
  }

  bool NextRow(Tuple* out) override {
    Tuple row;
    if (!child_->NextRow(&row)) {
      return false;
    }
    out->doc = row.doc;
    out->values.clear();
    out->values.reserve(items_.size());
    for (const Item& item : items_) {
      if (item.source >= 0) {
        out->values.push_back(row.values[item.source]);
      } else if (!item.count_product.empty()) {
        uint64_t product = 1;
        for (const int idx : item.count_product) {
          product *= std::max<uint64_t>(1, row.values[idx].count);
        }
        out->values.push_back(Value::Count(product));
      } else {
        sa::InternalScore score = item.expr->Evaluate(
            *env_->scheme, doc_ctx_, col_ctx_, row, &expr_scratch_);
        if (item.finalize) {
          score = sa::InternalScore(
              env_->scheme->Finalize(doc_ctx_, env_->query_ctx, score));
        }
        out->values.push_back(Value::Score(std::move(score)));
      }
    }
    return true;
  }

 private:
  DocId Seek(DocId min_doc) override {
    if (!child_->AdvanceDoc(min_doc)) {
      return kInvalidDoc;
    }
    PrepareDocContexts(child_->doc());
    return child_->doc();
  }

  void PrepareDocContexts(DocId doc) {
    doc_ctx_.doc = doc;
    doc_ctx_.length = env_->stats.DocLength(doc);
    doc_ctx_.collection_size = env_->stats.CollectionSize();
    doc_ctx_.avg_doc_length = env_->stats.AverageDocLength();
    // Only tf varies per document; the rest of col_ctx_ is constant.
    for (auto& [column_index, cursor] : tf_cursors_) {
      CountedSkipTo(&cursor, doc, env_->counters);
      col_ctx_[column_index].tf_in_doc =
          (!cursor.AtEnd() && cursor.doc() == doc) ? cursor.tf() : 0;
    }
  }

  DocOperatorPtr child_;
  std::vector<Item> items_;
  const Schema* input_schema_;
  EvalEnv* env_;
  std::vector<sa::ColumnContext> base_col_ctx_;
  std::vector<std::pair<size_t, index::PostingCursor>> tf_cursors_;
  sa::DocContext doc_ctx_;
  std::vector<sa::ColumnContext> col_ctx_;
  std::vector<sa::InternalScore> expr_scratch_;
};

// -------------------------------------------------------------- GroupOp --
// γ_d: folds the document's rows into one row, hosting ⊕ (with optional ⊗
// count weighting) and COUNT(*). Buffers are members, reused across
// documents.
class GroupOp final : public DocOperator {
 public:
  struct Agg {
    int input = -1;
    int scale = -1;
  };

  GroupOp(DocOperatorPtr child, std::vector<Agg> aggs, bool want_count,
          EvalEnv* env)
      : child_(std::move(child)),
        aggs_(std::move(aggs)),
        want_count_(want_count),
        env_(env),
        scores_(aggs_.size()) {}

  bool NextRow(Tuple* out) override {
    if (!pending_) {
      return false;
    }
    pending_ = false;
    std::swap(*out, output_);  // both sides keep their capacity
    return true;
  }

 private:
  DocId Seek(DocId min_doc) override {
    if (!child_->AdvanceDoc(min_doc)) {
      return kInvalidDoc;
    }
    uint64_t count = 0;
    while (child_->NextRow(&input_)) {
      for (size_t a = 0; a < aggs_.size(); ++a) {
        sa::InternalScore contribution = input_.values[aggs_[a].input].score;
        if (aggs_[a].scale >= 0) {
          const uint64_t weight =
              std::max<uint64_t>(1, input_.values[aggs_[a].scale].count);
          if (weight != 1) {
            contribution = env_->scheme->Scale(contribution, weight);
          }
        }
        if (count == 0) {
          scores_[a] = std::move(contribution);
        } else {
          scores_[a] = env_->scheme->Alt(scores_[a], contribution);
        }
      }
      ++count;
    }
    pending_ = count > 0;
    if (pending_) {
      output_.doc = child_->doc();
      output_.values.clear();
      output_.values.reserve(aggs_.size() + (want_count_ ? 1 : 0));
      for (sa::InternalScore& score : scores_) {
        output_.values.push_back(Value::Score(std::move(score)));
      }
      if (want_count_) {
        output_.values.push_back(Value::Count(count));
      }
    }
    return child_->doc();
  }

  DocOperatorPtr child_;
  std::vector<Agg> aggs_;
  bool want_count_;
  EvalEnv* env_;
  Tuple input_;
  std::vector<sa::InternalScore> scores_;
  Tuple output_;
  bool pending_ = false;
};

// ------------------------------------------------------------ AltElimOp --
// δ_A: emits the first row of each document and skips the rest — the lazy
// row protocol makes the skip signal implicit (the child never computes
// rows nobody asks for).
class AltElimOp final : public DocOperator {
 public:
  explicit AltElimOp(DocOperatorPtr child) : child_(std::move(child)) {}

  bool NextRow(Tuple* out) override {
    if (emitted_) {
      return false;
    }
    emitted_ = true;
    return child_->NextRow(out);
  }

 private:
  DocId Seek(DocId min_doc) override {
    if (!child_->AdvanceDoc(min_doc)) {
      return kInvalidDoc;
    }
    emitted_ = false;
    return child_->doc();
  }

  DocOperatorPtr child_;
  bool emitted_ = false;
};

// ----------------------------------------------------------- AntiJoinOp --
class AntiJoinOp final : public DocOperator {
 public:
  AntiJoinOp(DocOperatorPtr left, DocOperatorPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  bool NextRow(Tuple* out) override { return left_->NextRow(out); }

 private:
  DocId Seek(DocId min_doc) override {
    DocId target = min_doc;
    while (left_->AdvanceDoc(target)) {
      const DocId d = left_->doc();
      if (right_exhausted_ || !right_->AdvanceDoc(d)) {
        right_exhausted_ = true;
        return d;
      }
      if (right_->doc() != d) {
        return d;
      }
      target = d + 1;
    }
    return kInvalidDoc;
  }

  DocOperatorPtr left_;
  DocOperatorPtr right_;
  // Once the right side runs out it is not asked again: a re-seek of an
  // exhausted scan would still charge a skip call per document.
  bool right_exhausted_ = false;
};

// --------------------------------------------------------------- SortOp --
// τ: global doc order is inherent; sorts the current document's rows in
// the canonical column order.
class SortOp final : public DocOperator {
 public:
  SortOp(DocOperatorPtr child, std::vector<size_t> column_order)
      : child_(std::move(child)), column_order_(std::move(column_order)) {}

  bool NextRow(Tuple* out) override {
    if (next_row_ >= rows_.size()) {
      return false;
    }
    *out = std::move(rows_[next_row_++]);
    return true;
  }

 private:
  DocId Seek(DocId min_doc) override {
    if (!child_->AdvanceDoc(min_doc)) {
      return kInvalidDoc;
    }
    rows_.clear();
    Tuple row;
    while (child_->NextRow(&row)) {
      rows_.push_back(std::move(row));
    }
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Tuple& a, const Tuple& b) {
                       for (const size_t i : column_order_) {
                         const int c = ma::CompareValue(a.values[i],
                                                        b.values[i]);
                         if (c != 0) return c < 0;
                       }
                       return false;
                     });
    next_row_ = 0;
    return child_->doc();
  }

  DocOperatorPtr child_;
  std::vector<size_t> column_order_;
  std::vector<Tuple> rows_;
  size_t next_row_ = 0;
};

}  // namespace

StatusOr<DocOperatorPtr> BuildOperator(const ma::PlanNode& node,
                                       EvalEnv* env) {
  switch (node.kind) {
    case OpKind::kAtom: {
      if (node.term == kInvalidTerm) {
        return DocOperatorPtr(std::make_unique<EmptyOp>());
      }
      return DocOperatorPtr(std::make_unique<ScanOp>(
          &env->stats.index().postings(node.term), env->range,
          env->counters));
    }
    case OpKind::kPreCountAtom: {
      if (node.term == kInvalidTerm) {
        return DocOperatorPtr(std::make_unique<EmptyOp>());
      }
      return DocOperatorPtr(std::make_unique<PreCountScanOp>(
          &env->stats.index().postings(node.term), env->range,
          env->counters));
    }
    case OpKind::kJoin: {
      GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr left,
                             BuildOperator(*node.children[0], env));
      GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr right,
                             BuildOperator(*node.children[1], env));
      GRAFT_ASSIGN_OR_RETURN(
          std::vector<CompiledPredicate> predicates,
          CompilePredicates(node.predicates, node.schema));
      return DocOperatorPtr(std::make_unique<JoinOp>(
          std::move(left), std::move(right), std::move(predicates),
          env->counters));
    }
    case OpKind::kOuterUnion: {
      std::vector<DocOperatorPtr> children;
      std::vector<std::vector<int>> mappings;
      for (const ma::PlanNodePtr& child : node.children) {
        GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr op,
                               BuildOperator(*child, env));
        children.push_back(std::move(op));
        std::vector<int> mapping(node.schema.columns.size(), -1);
        for (size_t o = 0; o < node.schema.columns.size(); ++o) {
          const Column& out = node.schema.columns[o];
          mapping[o] = out.kind == Column::Kind::kPos
                           ? child->schema.FindVar(out.var)
                           : child->schema.Find(out.name);
        }
        mappings.push_back(std::move(mapping));
      }
      return DocOperatorPtr(std::make_unique<UnionOp>(
          std::move(children), std::move(mappings), &node.schema));
    }
    case OpKind::kSelect: {
      GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr child,
                             BuildOperator(*node.children[0], env));
      GRAFT_ASSIGN_OR_RETURN(
          std::vector<CompiledPredicate> predicates,
          CompilePredicates(node.predicates, node.schema));
      return DocOperatorPtr(std::make_unique<FilterOp>(
          std::move(child), std::move(predicates)));
    }
    case OpKind::kProject: {
      // Physical fusion: the aggregated pre-count leaf
      // π{s := α⊗(c) ⊗ c, c}(CA(k)) becomes one operator.
      if (env->scheme != nullptr &&
          node.children[0]->kind == OpKind::kPreCountAtom &&
          node.items.size() == 2) {
        const ma::ProjectItem& scored = node.items[0];
        const ma::ProjectItem& passthrough = node.items[1];
        const ma::PlanNode& ca = *node.children[0];
        const bool matches =
            scored.expr != nullptr && !scored.finalize &&
            scored.expr->kind == ma::ScoreExpr::Kind::kScaleByCount &&
            scored.expr->column == ca.output_column &&
            scored.expr->left->kind == ma::ScoreExpr::Kind::kInitFromCount &&
            scored.expr->left->column == ca.output_column &&
            passthrough.source == ca.output_column;
        if (matches) {
          if (ca.term == kInvalidTerm) {
            return DocOperatorPtr(std::make_unique<EmptyOp>());
          }
          return DocOperatorPtr(std::make_unique<FusedScoredCountScan>(
              &env->stats.index().postings(ca.term), ca.term, env));
        }
      }
      GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr child,
                             BuildOperator(*node.children[0], env));
      const Schema& input = node.children[0]->schema;
      std::vector<ProjectOp::Item> items;
      for (const ma::ProjectItem& item : node.items) {
        ProjectOp::Item compiled;
        if (!item.source.empty()) {
          compiled.source = input.Find(item.source);
          if (compiled.source < 0) {
            return Status::Internal("unresolved projection source: " +
                                    item.source);
          }
        } else if (!item.count_product.empty()) {
          for (const std::string& source : item.count_product) {
            compiled.count_product.push_back(input.Find(source));
          }
        } else {
          if (env->scheme == nullptr) {
            return Status::FailedPrecondition(
                "plan hosts scoring operators but no scheme was provided");
          }
          GRAFT_ASSIGN_OR_RETURN(
              auto expr, ma::CompiledScoreExpr::Compile(*item.expr, input));
          compiled.expr.emplace(std::move(expr));
          compiled.finalize = item.finalize;
        }
        items.push_back(std::move(compiled));
      }
      return DocOperatorPtr(std::make_unique<ProjectOp>(
          std::move(child), std::move(items), &node.children[0]->schema,
          env));
    }
    case OpKind::kAntiJoin: {
      GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr left,
                             BuildOperator(*node.children[0], env));
      GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr right,
                             BuildOperator(*node.children[1], env));
      return DocOperatorPtr(
          std::make_unique<AntiJoinOp>(std::move(left), std::move(right)));
    }
    case OpKind::kGroup: {
      // Physical fast path: the eager-counting pattern
      // γ_{d|c:COUNT}(π_d(A(k))) executes as a dedicated count scan that
      // walks the position list once per doc instead of building tuples.
      if (node.group.score_aggs.empty() && !node.group.count_output.empty()) {
        const ma::PlanNode& child = *node.children[0];
        if (child.kind == OpKind::kProject && child.items.empty() &&
            child.children[0]->kind == OpKind::kAtom) {
          const ma::PlanNode& atom = *child.children[0];
          if (atom.term == kInvalidTerm) {
            return DocOperatorPtr(std::make_unique<EmptyOp>());
          }
          return DocOperatorPtr(std::make_unique<EagerCountScanOp>(
              &env->stats.index().postings(atom.term), env->range,
              env->counters));
        }
      }
      if (!node.group.score_aggs.empty() && env->scheme == nullptr) {
        return Status::FailedPrecondition(
            "plan hosts ⊕ aggregation but no scheme was provided");
      }
      GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr child,
                             BuildOperator(*node.children[0], env));
      const Schema& input = node.children[0]->schema;
      std::vector<GroupOp::Agg> aggs;
      for (const ma::GroupSpec::ScoreAgg& agg : node.group.score_aggs) {
        GroupOp::Agg a;
        a.input = input.Find(agg.input);
        a.scale =
            agg.scale_count.empty() ? -1 : input.Find(agg.scale_count);
        aggs.push_back(a);
      }
      return DocOperatorPtr(std::make_unique<GroupOp>(
          std::move(child), std::move(aggs),
          !node.group.count_output.empty(), env));
    }
    case OpKind::kAltElim: {
      GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr child,
                             BuildOperator(*node.children[0], env));
      return DocOperatorPtr(std::make_unique<AltElimOp>(std::move(child)));
    }
    case OpKind::kSort: {
      GRAFT_ASSIGN_OR_RETURN(DocOperatorPtr child,
                             BuildOperator(*node.children[0], env));
      // Canonical column order (see ReferenceEvaluator::EvaluateSort).
      std::vector<size_t> order;
      for (size_t i = 0; i < node.schema.columns.size(); ++i) {
        order.push_back(i);
      }
      const Schema& schema = node.schema;
      std::stable_sort(order.begin(), order.end(),
                       [&schema](size_t a, size_t b) {
                         const Column& ca = schema.columns[a];
                         const Column& cb = schema.columns[b];
                         const bool pa = ca.kind == Column::Kind::kPos;
                         const bool pb = cb.kind == Column::Kind::kPos;
                         if (pa != pb) return pa;
                         if (pa && pb) return ca.var < cb.var;
                         return ca.name < cb.name;
                       });
      return DocOperatorPtr(
          std::make_unique<SortOp>(std::move(child), std::move(order)));
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace graft::exec
