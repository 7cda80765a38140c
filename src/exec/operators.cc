#include "exec/operators.h"

#include <algorithm>
#include <optional>
#include <set>

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

// ------------------------------------------------------------- ScanOp --
// A(k): one row per term position, doc-ordered, galloping SkipTo.
class ScanOp final : public DocOperator {
 public:
  ScanOp(const index::PostingList* list, index::DocRange range,
         ExecStats* counters)
      : cursor_(list, range), counters_(counters) {}

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      // The buffered document is still valid (the cursor is pre-advanced).
      return true;
    }
    started_ = true;
    CountedSkipTo(&cursor_, min_doc, counters_);
    if (cursor_.AtEnd()) {
      return false;
    }
    current_doc_ = cursor_.doc();
    offsets_ = cursor_.offsets();
    if (counters_ != nullptr) {
      ++counters_->blocks_decoded;
    }
    next_offset_ = 0;
    cursor_.Next();  // pre-advance so the next SkipTo starts beyond.
    return true;
  }

  bool NextRow(Tuple* out) override {
    if (next_offset_ >= offsets_.size()) {
      return false;
    }
    if (counters_ != nullptr) {
      ++counters_->positions_scanned;
    }
    out->doc = current_doc_;
    out->values.clear();
    out->values.push_back(Value::Pos(offsets_[next_offset_++]));
    return true;
  }

 private:
  index::PostingCursor cursor_;
  std::span<const Offset> offsets_;
  size_t next_offset_ = 0;
  ExecStats* counters_;
};

// Scan over a keyword absent from the index: empty.
class EmptyOp final : public DocOperator {
 public:
  bool AdvanceDoc(DocId) override { return false; }
  bool NextRow(Tuple*) override { return false; }
};

// -------------------------------------------------- Count scan ops --
// CA(k) (pre-count): reads the term-document arrays; O(1) per doc, no
// position memory touched.
class PreCountScanOp final : public DocOperator {
 public:
  PreCountScanOp(const index::PostingList* list, index::DocRange range,
                 ExecStats* counters)
      : cursor_(list, range), counters_(counters) {}

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      // The buffered document is still valid (the cursor is pre-advanced).
      return true;
    }
    started_ = true;
    CountedSkipTo(&cursor_, min_doc, counters_);
    if (cursor_.AtEnd()) {
      return false;
    }
    current_doc_ = cursor_.doc();
    count_ = cursor_.tf();
    emitted_ = false;
    cursor_.Next();
    if (counters_ != nullptr) {
      ++counters_->count_entries_scanned;
    }
    return true;
  }

  bool NextRow(Tuple* out) override {
    if (emitted_) {
      return false;
    }
    emitted_ = true;
    out->doc = current_doc_;
    out->values.clear();
    out->values.push_back(Value::Count(count_));
    return true;
  }

 private:
  index::PostingCursor cursor_;
  uint32_t count_ = 0;
  bool emitted_ = false;
  ExecStats* counters_;
};

// γ_{d|c:COUNT}(π_d(A(k))) (classical eager counting): the count is
// produced by iterating the document's position list — same output as
// pre-counting, but the position memory is walked.
class EagerCountScanOp final : public DocOperator {
 public:
  EagerCountScanOp(const index::PostingList* list, index::DocRange range,
                   ExecStats* counters)
      : cursor_(list, range), counters_(counters) {}

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      // The buffered document is still valid (the cursor is pre-advanced).
      return true;
    }
    started_ = true;
    CountedSkipTo(&cursor_, min_doc, counters_);
    if (cursor_.AtEnd()) {
      return false;
    }
    current_doc_ = cursor_.doc();
    // Walk the offsets (the "π_d then COUNT" of the logical rewrite); the
    // checksum forces the position memory to actually be read.
    const std::span<const Offset> offsets = cursor_.offsets();
    for (const Offset offset : offsets) {
      checksum_ += offset;
    }
    if (counters_ != nullptr) {
      counters_->positions_scanned += offsets.size();
      ++counters_->blocks_decoded;
    }
    count_ = offsets.size();
    emitted_ = false;
    cursor_.Next();
    return true;
  }

  bool NextRow(Tuple* out) override {
    if (emitted_) {
      return false;
    }
    emitted_ = true;
    out->doc = current_doc_;
    out->values.clear();
    out->values.push_back(Value::Count(count_));
    return true;
  }

 private:
  index::PostingCursor cursor_;
  uint64_t count_ = 0;
  uint64_t checksum_ = 0;
  bool emitted_ = false;
  ExecStats* counters_;
};

// ----------------------------------------------- FusedScoredCountScan --
// Physical fusion of the aggregated pre-count leaf pattern
// π{s := α⊗(c) ⊗ c, c}(CA(k)): one operator emits the keyword's
// per-document ⟨column score, count⟩ pair straight from the term-document
// arrays — no intermediate tuples, no statistics lookups (tf is the
// cursor's count; df is a constant).
class FusedScoredCountScan final : public DocOperator {
 public:
  FusedScoredCountScan(const index::PostingList* list, TermId term,
                       EvalEnv* env)
      : cursor_(list, env->range), env_(env) {
    col_.term = term;
    col_.doc_freq = env->stats.DocFreq(term);
    doc_ctx_.collection_size = env->stats.CollectionSize();
    doc_ctx_.avg_doc_length = env->stats.AverageDocLength();
  }

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      return true;
    }
    started_ = true;
    CountedSkipTo(&cursor_, min_doc, env_->counters);
    if (cursor_.AtEnd()) {
      current_doc_ = kInvalidDoc;
      return false;
    }
    current_doc_ = cursor_.doc();
    count_ = cursor_.tf();
    emitted_ = false;
    cursor_.Next();
    if (env_->counters != nullptr) {
      ++env_->counters->count_entries_scanned;
    }
    return true;
  }

  bool NextRow(Tuple* out) override {
    if (emitted_) {
      return false;
    }
    emitted_ = true;
    doc_ctx_.doc = current_doc_;
    doc_ctx_.length = env_->stats.DocLength(current_doc_);
    col_.tf_in_doc = count_;
    sa::InternalScore score =
        env_->scheme->Init(doc_ctx_, col_, /*offset=*/0);
    if (count_ > 1) {
      score = env_->scheme->Scale(score, count_);
    }
    out->doc = current_doc_;
    out->values.clear();
    out->values.push_back(Value::Score(std::move(score)));
    out->values.push_back(Value::Count(count_));
    return true;
  }

 private:
  index::PostingCursor cursor_;
  EvalEnv* env_;
  sa::DocContext doc_ctx_;
  sa::ColumnContext col_;
  uint32_t count_ = 0;
  bool emitted_ = false;
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

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      return true;
    }
    started_ = true;
    DocId target = min_doc;
    while (true) {
      if (!left_->AdvanceDoc(target)) {
        current_doc_ = kInvalidDoc;
        return false;
      }
      const DocId d = left_->doc();
      if (!right_->AdvanceDoc(d)) {
        current_doc_ = kInvalidDoc;
        return false;
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
        current_doc_ = d;
        return true;
      }
      combo_deferred_ = false;
      if (FindCombo()) {
        current_doc_ = d;
        return true;
      }
      target = d + 1;
    }
  }

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
        schema_(schema),
        alive_(children_.size(), true) {}

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      return true;
    }
    started_ = true;
    DocId best = kInvalidDoc;
    for (size_t i = 0; i < children_.size(); ++i) {
      alive_[i] = children_[i]->AdvanceDoc(min_doc);
      if (alive_[i]) {
        best = std::min(best, children_[i]->doc());
      }
    }
    if (best == kInvalidDoc) {
      current_doc_ = kInvalidDoc;
      return false;
    }
    current_doc_ = best;
    active_child_ = 0;
    return true;
  }

  bool NextRow(Tuple* out) override {
    while (active_child_ < children_.size()) {
      const size_t c = active_child_;
      if (!alive_[c] || children_[c]->doc() != current_doc_) {
        ++active_child_;
        continue;
      }
      Tuple row;
      if (!children_[c]->NextRow(&row)) {
        ++active_child_;
        continue;
      }
      out->doc = current_doc_;
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
  std::vector<DocOperatorPtr> children_;
  std::vector<std::vector<int>> mappings_;  // output col -> child col / -1
  const Schema* schema_;
  std::vector<bool> alive_;
  size_t active_child_ = 0;
};

// ------------------------------------------------------------- FilterOp --
class FilterOp final : public DocOperator {
 public:
  FilterOp(DocOperatorPtr child, std::vector<CompiledPredicate> predicates)
      : child_(std::move(child)), predicates_(std::move(predicates)) {}

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      return true;
    }
    started_ = true;
    DocId target = min_doc;
    while (child_->AdvanceDoc(target)) {
      if (PullPassing()) {
        current_doc_ = child_->doc();
        return true;
      }
      target = child_->doc() + 1;
    }
    current_doc_ = kInvalidDoc;
    return false;
  }

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

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      return true;
    }
    started_ = true;
    if (!child_->AdvanceDoc(min_doc)) {
      current_doc_ = kInvalidDoc;
      return false;
    }
    current_doc_ = child_->doc();
    PrepareDocContexts();
    return true;
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
  void PrepareDocContexts() {
    doc_ctx_.doc = current_doc_;
    doc_ctx_.length = env_->stats.DocLength(current_doc_);
    doc_ctx_.collection_size = env_->stats.CollectionSize();
    doc_ctx_.avg_doc_length = env_->stats.AverageDocLength();
    // Only tf varies per document; the rest of col_ctx_ is constant.
    for (auto& [column_index, cursor] : tf_cursors_) {
      CountedSkipTo(&cursor, current_doc_, env_->counters);
      col_ctx_[column_index].tf_in_doc =
          (!cursor.AtEnd() && cursor.doc() == current_doc_) ? cursor.tf()
                                                            : 0;
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
// γ: consumes the document's rows and emits one row per group (first-seen
// order), hosting ⊕ (with optional ⊗ count weighting) and counts.
class GroupOp final : public DocOperator {
 public:
  struct Agg {
    int input = -1;
    int scale = -1;
  };

  GroupOp(DocOperatorPtr child, std::vector<int> key_idx,
          std::vector<Agg> aggs, bool want_count, int count_in, EvalEnv* env)
      : child_(std::move(child)),
        key_idx_(std::move(key_idx)),
        aggs_(std::move(aggs)),
        want_count_(want_count),
        count_in_(count_in),
        env_(env) {}

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      return true;
    }
    started_ = true;
    if (!child_->AdvanceDoc(min_doc)) {
      current_doc_ = kInvalidDoc;
      return false;
    }
    current_doc_ = child_->doc();
    BuildGroups();
    return true;
  }

  bool NextRow(Tuple* out) override {
    if (next_group_ >= output_.size()) {
      return false;
    }
    *out = std::move(output_[next_group_++]);
    return true;
  }

 private:
  struct GroupState {
    std::vector<Value> key_values;
    std::vector<sa::InternalScore> scores;
    std::vector<bool> initialized;
    uint64_t count = 0;
  };

  // Fast path for the ubiquitous keyless γ_d: one accumulator, no
  // per-document allocations (buffers are members, reused across docs).
  void BuildSingleGroup() {
    scratch_scores_.assign(aggs_.size(), sa::InternalScore());
    scratch_init_.assign(aggs_.size(), false);
    uint64_t count = 0;
    bool any = false;
    while (child_->NextRow(&scratch_row_)) {
      any = true;
      for (size_t a = 0; a < aggs_.size(); ++a) {
        sa::InternalScore contribution =
            scratch_row_.values[aggs_[a].input].score;
        if (aggs_[a].scale >= 0) {
          const uint64_t weight = std::max<uint64_t>(
              1, scratch_row_.values[aggs_[a].scale].count);
          if (weight != 1) {
            contribution = env_->scheme->Scale(contribution, weight);
          }
        }
        if (scratch_init_[a]) {
          scratch_scores_[a] =
              env_->scheme->Alt(scratch_scores_[a], contribution);
        } else {
          scratch_scores_[a] = std::move(contribution);
          scratch_init_[a] = true;
        }
      }
      if (want_count_) {
        count +=
            count_in_ >= 0 ? scratch_row_.values[count_in_].count : 1;
      }
    }
    output_.clear();
    if (any) {
      output_.emplace_back();
      Tuple& out = output_.back();
      out.doc = current_doc_;
      out.values.reserve(aggs_.size() + (want_count_ ? 1 : 0));
      for (sa::InternalScore& score : scratch_scores_) {
        out.values.push_back(Value::Score(std::move(score)));
      }
      if (want_count_) {
        out.values.push_back(Value::Count(count));
      }
    }
    next_group_ = 0;
  }

  void BuildGroups() {
    if (key_idx_.empty()) {
      BuildSingleGroup();
      return;
    }
    std::vector<GroupState> groups;
    Tuple row;
    while (child_->NextRow(&row)) {
      std::vector<Value> key_values;
      key_values.reserve(key_idx_.size());
      for (const int idx : key_idx_) {
        key_values.push_back(row.values[idx]);
      }
      GroupState* state = nullptr;
      for (GroupState& g : groups) {
        bool same = true;
        for (size_t k = 0; k < key_values.size(); ++k) {
          if (ma::CompareValue(g.key_values[k], key_values[k]) != 0) {
            same = false;
            break;
          }
        }
        if (same) {
          state = &g;
          break;
        }
      }
      if (state == nullptr) {
        groups.emplace_back();
        state = &groups.back();
        state->key_values = std::move(key_values);
        state->scores.resize(aggs_.size());
        state->initialized.assign(aggs_.size(), false);
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        sa::InternalScore contribution = row.values[aggs_[a].input].score;
        if (aggs_[a].scale >= 0) {
          const uint64_t weight =
              std::max<uint64_t>(1, row.values[aggs_[a].scale].count);
          if (weight != 1) {
            contribution = env_->scheme->Scale(contribution, weight);
          }
        }
        if (state->initialized[a]) {
          state->scores[a] =
              env_->scheme->Alt(state->scores[a], contribution);
        } else {
          state->scores[a] = std::move(contribution);
          state->initialized[a] = true;
        }
      }
      if (want_count_) {
        state->count += count_in_ >= 0 ? row.values[count_in_].count : 1;
      }
    }

    output_.clear();
    output_.reserve(groups.size());
    for (GroupState& g : groups) {
      Tuple out;
      out.doc = current_doc_;
      for (Value& key : g.key_values) {
        out.values.push_back(std::move(key));
      }
      for (sa::InternalScore& score : g.scores) {
        out.values.push_back(Value::Score(std::move(score)));
      }
      if (want_count_) {
        out.values.push_back(Value::Count(g.count));
      }
      output_.push_back(std::move(out));
    }
    next_group_ = 0;
  }

  DocOperatorPtr child_;
  std::vector<int> key_idx_;
  std::vector<Agg> aggs_;
  bool want_count_;
  int count_in_;
  EvalEnv* env_;
  std::vector<Tuple> output_;
  size_t next_group_ = 0;
  // Reused scratch for the keyless fast path.
  Tuple scratch_row_;
  std::vector<sa::InternalScore> scratch_scores_;
  std::vector<bool> scratch_init_;
};

// ------------------------------------------------------------ AltElimOp --
// δ_A: emits the first row of each document and skips the rest — the lazy
// row protocol makes the skip signal implicit (the child never computes
// rows nobody asks for).
class AltElimOp final : public DocOperator {
 public:
  explicit AltElimOp(DocOperatorPtr child) : child_(std::move(child)) {}

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      return true;
    }
    started_ = true;
    if (!child_->AdvanceDoc(min_doc)) {
      current_doc_ = kInvalidDoc;
      return false;
    }
    current_doc_ = child_->doc();
    emitted_ = false;
    return true;
  }

  bool NextRow(Tuple* out) override {
    if (emitted_) {
      return false;
    }
    emitted_ = true;
    return child_->NextRow(out);
  }

 private:
  DocOperatorPtr child_;
  bool emitted_ = false;
};

// ----------------------------------------------------------- AntiJoinOp --
class AntiJoinOp final : public DocOperator {
 public:
  AntiJoinOp(DocOperatorPtr left, DocOperatorPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      return true;
    }
    started_ = true;
    DocId target = min_doc;
    while (left_->AdvanceDoc(target)) {
      const DocId d = left_->doc();
      if (right_exhausted_ || !right_->AdvanceDoc(d)) {
        right_exhausted_ = true;
        current_doc_ = d;
        return true;
      }
      if (right_->doc() != d) {
        current_doc_ = d;
        return true;
      }
      target = d + 1;
    }
    current_doc_ = kInvalidDoc;
    return false;
  }

  bool NextRow(Tuple* out) override { return left_->NextRow(out); }

 private:
  DocOperatorPtr left_;
  DocOperatorPtr right_;
  bool right_exhausted_ = false;
};

// --------------------------------------------------------------- SortOp --
// τ: global doc order is inherent; sorts the current document's rows in
// the canonical column order.
class SortOp final : public DocOperator {
 public:
  SortOp(DocOperatorPtr child, std::vector<size_t> column_order)
      : child_(std::move(child)), column_order_(std::move(column_order)) {}

  bool AdvanceDoc(DocId min_doc) override {
    if (started_ && current_doc_ != kInvalidDoc && current_doc_ >= min_doc) {
      return true;
    }
    started_ = true;
    if (!child_->AdvanceDoc(min_doc)) {
      current_doc_ = kInvalidDoc;
      return false;
    }
    current_doc_ = child_->doc();
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
    return true;
  }

  bool NextRow(Tuple* out) override {
    if (next_row_ >= rows_.size()) {
      return false;
    }
    *out = std::move(rows_[next_row_++]);
    return true;
  }

 private:
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
      if (node.group.keys.empty() && node.group.score_aggs.empty() &&
          !node.group.count_output.empty() && node.group.count_input.empty()) {
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
      std::vector<int> key_idx;
      for (const std::string& key : node.group.keys) {
        key_idx.push_back(input.Find(key));
      }
      std::vector<GroupOp::Agg> aggs;
      for (const ma::GroupSpec::ScoreAgg& agg : node.group.score_aggs) {
        GroupOp::Agg a;
        a.input = input.Find(agg.input);
        a.scale =
            agg.scale_count.empty() ? -1 : input.Find(agg.scale_count);
        aggs.push_back(a);
      }
      const bool want_count = !node.group.count_output.empty();
      const int count_in = node.group.count_input.empty()
                               ? -1
                               : input.Find(node.group.count_input);
      return DocOperatorPtr(std::make_unique<GroupOp>(
          std::move(child), std::move(key_idx), std::move(aggs), want_count,
          count_in, env));
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
