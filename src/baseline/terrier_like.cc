#include "baseline/terrier_like.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "index/posting_list.h"
#include "mcalc/parser.h"
#include "sa/scoring_scheme.h"
#include "sa/weighting.h"

namespace graft::baseline {

namespace {

// Query compilation shared shape with the Lucene-like engine: conjunction
// of terms / phrases / proximity groups / term disjunctions.
struct Group {
  enum class Kind { kTerm, kPhrase, kProximity, kDisjunction };
  Kind kind = Kind::kTerm;
  std::vector<std::string> words;
  int64_t slop = 0;
};

bool CompileQuery(const mcalc::Query& query, std::vector<Group>* groups) {
  const auto compile_child = [groups](const mcalc::Node& node) -> bool {
    switch (node.kind) {
      case mcalc::NodeKind::kKeyword: {
        groups->push_back(Group{Group::Kind::kTerm, {node.keyword}, 0});
        return true;
      }
      case mcalc::NodeKind::kOr: {
        Group group;
        group.kind = Group::Kind::kDisjunction;
        for (const mcalc::NodePtr& branch : node.children) {
          if (branch->kind != mcalc::NodeKind::kKeyword) return false;
          group.words.push_back(branch->keyword);
        }
        groups->push_back(std::move(group));
        return true;
      }
      case mcalc::NodeKind::kConstrained: {
        const mcalc::Node& inner = *node.children[0];
        std::vector<std::string> words;
        if (inner.kind == mcalc::NodeKind::kKeyword) {
          words.push_back(inner.keyword);
        } else if (inner.kind == mcalc::NodeKind::kAnd) {
          for (const mcalc::NodePtr& kw : inner.children) {
            if (kw->kind != mcalc::NodeKind::kKeyword) return false;
            words.push_back(kw->keyword);
          }
        } else {
          return false;
        }
        bool all_distance_one = !node.constraints.empty();
        for (const mcalc::PredicateCall& call : node.constraints) {
          if (call.name != "DISTANCE" || call.params.size() != 1 ||
              call.params[0] != 1) {
            all_distance_one = false;
            break;
          }
        }
        if (all_distance_one) {
          groups->push_back(
              Group{Group::Kind::kPhrase, std::move(words), 0});
          return true;
        }
        if (node.constraints.size() == 1 &&
            node.constraints[0].name == "PROXIMITY") {
          groups->push_back(Group{Group::Kind::kProximity, std::move(words),
                                  node.constraints[0].params[0]});
          return true;
        }
        return false;
      }
      default:
        return false;
    }
  };
  const mcalc::Node& root = *query.root;
  if (root.kind == mcalc::NodeKind::kAnd) {
    for (const mcalc::NodePtr& child : root.children) {
      if (!compile_child(*child)) return false;
    }
    return true;
  }
  return compile_child(root);
}

bool PhraseInDoc(const index::InvertedIndex& index,
                 const std::vector<TermId>& terms, DocId doc) {
  std::vector<std::vector<Offset>> lists;
  for (const TermId term : terms) {
    index::PostingCursor cursor(&index.postings(term));
    cursor.SkipTo(doc);
    if (cursor.AtEnd() || cursor.doc() != doc) {
      return false;
    }
    const std::span<const Offset> offsets = cursor.offsets();
    lists.emplace_back(offsets.begin(), offsets.end());
  }
  for (const Offset start : lists[0]) {
    bool ok = true;
    for (size_t i = 1; i < lists.size(); ++i) {
      if (!std::binary_search(lists[i].begin(), lists[i].end(),
                              start + static_cast<Offset>(i))) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

bool ProximityInDoc(const index::InvertedIndex& index,
                    const std::vector<TermId>& terms, DocId doc,
                    int64_t slop) {
  struct Tagged {
    Offset offset;
    size_t list;
  };
  std::vector<Tagged> all;
  for (size_t i = 0; i < terms.size(); ++i) {
    index::PostingCursor cursor(&index.postings(terms[i]));
    cursor.SkipTo(doc);
    if (cursor.AtEnd() || cursor.doc() != doc) {
      return false;
    }
    for (const Offset offset : cursor.offsets()) {
      all.push_back(Tagged{offset, i});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return a.offset < b.offset;
  });
  std::vector<size_t> in_window(terms.size(), 0);
  size_t covered = 0;
  size_t left = 0;
  for (size_t right = 0; right < all.size(); ++right) {
    if (in_window[all[right].list]++ == 0) ++covered;
    while (covered == terms.size()) {
      if (static_cast<int64_t>(all[right].offset) -
              static_cast<int64_t>(all[left].offset) <=
          slop) {
        return true;
      }
      if (--in_window[all[left].list] == 0) --covered;
      ++left;
    }
  }
  return false;
}

}  // namespace

bool TerrierLikeEngine::SupportsQuery(const mcalc::Query& query) {
  std::vector<Group> groups;
  return CompileQuery(query, &groups);
}

StatusOr<std::vector<ma::ScoredDoc>> TerrierLikeEngine::Search(
    std::string_view query_text, size_t top_k) const {
  GRAFT_ASSIGN_OR_RETURN(mcalc::Query query, mcalc::ParseQuery(query_text));
  return SearchQuery(query, top_k);
}

StatusOr<std::vector<ma::ScoredDoc>> TerrierLikeEngine::SearchQuery(
    const mcalc::Query& query, size_t top_k) const {
  std::vector<Group> groups;
  if (!CompileQuery(query, &groups)) {
    return Status::Unimplemented(
        "query uses constructs beyond terms/phrases/proximity/term "
        "disjunctions; Terrier-like engine does not support it");
  }

  // Resolve terms; a missing required term empties the result (conjunctive
  // semantics of the paper's queries).
  struct ResolvedGroup {
    Group::Kind kind;
    std::vector<TermId> terms;
    int64_t slop;
  };
  std::vector<ResolvedGroup> resolved;
  for (const Group& group : groups) {
    ResolvedGroup r;
    r.kind = group.kind;
    r.slop = group.slop;
    for (const std::string& word : group.words) {
      const TermId term = index_->LookupTerm(word);
      if (term == kInvalidTerm &&
          group.kind != Group::Kind::kDisjunction) {
        return std::vector<ma::ScoredDoc>{};
      }
      if (term != kInvalidTerm) {
        r.terms.push_back(term);
      }
    }
    resolved.push_back(std::move(r));
  }

  // Term-at-a-time accumulation: one pass per term, adding BM25 into the
  // document's accumulator and counting which groups the doc satisfied
  // (bit per group; positional groups verified in the final pass).
  struct Accumulator {
    double score = 0.0;
    uint32_t groups_hit = 0;
  };
  std::unordered_map<DocId, Accumulator> accumulators;
  sa::DocContext doc_ctx;
  doc_ctx.collection_size = index_->doc_count();
  doc_ctx.avg_doc_length = index_->average_doc_length();

  for (size_t g = 0; g < resolved.size(); ++g) {
    for (const TermId term : resolved[g].terms) {
      sa::ColumnContext col;
      col.term = term;
      col.doc_freq = index_->DocFreq(term);
      for (index::PostingCursor cursor(&index_->postings(term));
           !cursor.AtEnd(); cursor.Next()) {
        const DocId doc = cursor.doc();
        doc_ctx.doc = doc;
        doc_ctx.length = index_->doc_length(doc);
        col.tf_in_doc = cursor.tf();
        Accumulator& acc = accumulators[doc];
        acc.score += sa::Bm25(doc_ctx, col);
        acc.groups_hit |= 1u << g;
      }
    }
  }

  // Final pass: boolean semantics (every group satisfied) + positional
  // verification, then rank.
  const uint32_t all_groups =
      resolved.size() >= 32 ? ~0u : (1u << resolved.size()) - 1;
  std::vector<ma::ScoredDoc> results;
  for (const auto& [doc, acc] : accumulators) {
    if ((acc.groups_hit & all_groups) != all_groups) {
      continue;
    }
    bool ok = true;
    for (const ResolvedGroup& group : resolved) {
      if (group.kind == Group::Kind::kPhrase) {
        ok = PhraseInDoc(*index_, group.terms, doc);
      } else if (group.kind == Group::Kind::kProximity) {
        ok = ProximityInDoc(*index_, group.terms, doc, group.slop);
      }
      if (!ok) break;
    }
    if (ok) {
      results.push_back(ma::ScoredDoc{doc, acc.score});
    }
  }

  std::sort(results.begin(), results.end(),
            [](const ma::ScoredDoc& a, const ma::ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (top_k > 0 && results.size() > top_k) {
    results.resize(top_k);
  }
  return results;
}

}  // namespace graft::baseline
