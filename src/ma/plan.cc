#include "ma/plan.h"

#include <set>

namespace graft::ma {

std::string OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kAtom: return "A";
    case OpKind::kPreCountAtom: return "CA";
    case OpKind::kJoin: return "⋈";
    case OpKind::kOuterUnion: return "⊎";
    case OpKind::kSelect: return "σ";
    case OpKind::kProject: return "π";
    case OpKind::kAntiJoin: return "▷";
    case OpKind::kGroup: return "γ";
    case OpKind::kAltElim: return "δA";
    case OpKind::kSort: return "τ";
  }
  return "?";
}

PlanNodePtr PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->kind = kind;
  copy->keyword = keyword;
  copy->var = var;
  copy->term = term;
  copy->output_column = output_column;
  copy->predicates = predicates;
  copy->items = items;  // ProjectItem copy clones exprs
  copy->group = group;
  copy->schema = schema;
  copy->children.reserve(children.size());
  for (const PlanNodePtr& child : children) {
    copy->children.push_back(child->Clone());
  }
  return copy;
}

PlanNodePtr MakeAtom(std::string keyword, mcalc::VarId var) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kAtom;
  node->keyword = std::move(keyword);
  node->var = var;
  node->output_column = "p" + std::to_string(var);
  return node;
}

PlanNodePtr MakePreCountAtom(std::string keyword, std::string count_column) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kPreCountAtom;
  node->keyword = std::move(keyword);
  node->output_column = std::move(count_column);
  return node;
}

PlanNodePtr MakeJoin(PlanNodePtr left, PlanNodePtr right,
                     std::vector<mcalc::PredicateCall> residual) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kJoin;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  node->predicates = std::move(residual);
  return node;
}

PlanNodePtr MakeOuterUnion(std::vector<PlanNodePtr> children) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kOuterUnion;
  node->children = std::move(children);
  return node;
}

PlanNodePtr MakeSelect(PlanNodePtr child,
                       std::vector<mcalc::PredicateCall> predicates) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kSelect;
  node->children.push_back(std::move(child));
  node->predicates = std::move(predicates);
  return node;
}

PlanNodePtr MakeProject(PlanNodePtr child, std::vector<ProjectItem> items) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kProject;
  node->children.push_back(std::move(child));
  node->items = std::move(items);
  return node;
}

PlanNodePtr MakeAntiJoin(PlanNodePtr left, PlanNodePtr right) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kAntiJoin;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

PlanNodePtr MakeGroup(PlanNodePtr child, GroupSpec spec) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kGroup;
  node->children.push_back(std::move(child));
  node->group = std::move(spec);
  return node;
}

PlanNodePtr MakeAltElim(PlanNodePtr child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kAltElim;
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeSort(PlanNodePtr child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OpKind::kSort;
  node->children.push_back(std::move(child));
  return node;
}

namespace {

// Validates that each predicate's variables resolve to position columns.
Status CheckPredicates(const std::vector<mcalc::PredicateCall>& predicates,
                       const Schema& schema, const std::string& where) {
  for (const mcalc::PredicateCall& call : predicates) {
    GRAFT_RETURN_IF_ERROR(mcalc::ValidatePredicateCall(call));
    for (const mcalc::VarId var : call.vars) {
      if (schema.FindVar(var) < 0) {
        return Status::InvalidArgument(
            "predicate " + call.name + " references unbound variable p" +
            std::to_string(var) + " in " + where);
      }
    }
  }
  return Status::Ok();
}

Status ResolveNode(PlanNode* node, const index::InvertedIndex& index) {
  for (const PlanNodePtr& child : node->children) {
    GRAFT_RETURN_IF_ERROR(ResolveNode(child.get(), index));
  }
  node->schema.columns.clear();

  switch (node->kind) {
    case OpKind::kAtom: {
      node->term = index.LookupTerm(node->keyword);
      // Unknown keywords are legal (empty scan); keep kInvalidTerm.
      node->schema.columns.push_back(Column::Pos(
          node->output_column, node->var, node->term, node->keyword));
      return Status::Ok();
    }
    case OpKind::kPreCountAtom: {
      node->term = index.LookupTerm(node->keyword);
      node->schema.columns.push_back(
          Column::CountCol(node->output_column, node->term, node->keyword));
      return Status::Ok();
    }
    case OpKind::kJoin: {
      if (node->children.size() != 2) {
        return Status::InvalidArgument("join must have two children");
      }
      const Schema& left = node->children[0]->schema;
      const Schema& right = node->children[1]->schema;
      for (const Column& c : left.columns) {
        node->schema.columns.push_back(c);
      }
      for (const Column& c : right.columns) {
        if (node->schema.Find(c.name) >= 0) {
          return Status::InvalidArgument("duplicate column across join: " +
                                         c.name);
        }
        node->schema.columns.push_back(c);
      }
      return CheckPredicates(node->predicates, node->schema, "join");
    }
    case OpKind::kOuterUnion: {
      if (node->children.size() < 2) {
        return Status::InvalidArgument("union needs two or more children");
      }
      // Output schema: union of children's columns. Position columns are
      // identified by variable; all other kinds must appear in every child.
      for (const PlanNodePtr& child : node->children) {
        for (const Column& c : child->schema.columns) {
          if (c.kind == Column::Kind::kPos) {
            if (node->schema.FindVar(c.var) < 0) {
              node->schema.columns.push_back(c);
            }
          } else if (node->schema.Find(c.name) < 0) {
            node->schema.columns.push_back(c);
          }
        }
      }
      // Position columns pad with ∅ and count columns with 0 (both encode
      // "inconsequential"); score columns cannot be padded without calling
      // the scheme, so they must appear in every child.
      for (const PlanNodePtr& child : node->children) {
        for (const Column& c : node->schema.columns) {
          if (c.kind == Column::Kind::kScore &&
              child->schema.Find(c.name) < 0) {
            return Status::InvalidArgument(
                "outer union cannot pad score column: " + c.name);
          }
        }
      }
      return Status::Ok();
    }
    case OpKind::kSelect: {
      if (node->children.size() != 1) {
        return Status::InvalidArgument("select must have one child");
      }
      node->schema = node->children[0]->schema;
      return CheckPredicates(node->predicates, node->schema, "select");
    }
    case OpKind::kProject: {
      if (node->children.size() != 1) {
        return Status::InvalidArgument("project must have one child");
      }
      const Schema& input = node->children[0]->schema;
      std::set<std::string> names;
      for (const ProjectItem& item : node->items) {
        if (!names.insert(item.name).second) {
          return Status::InvalidArgument("duplicate projection output: " +
                                         item.name);
        }
        if (!item.source.empty()) {
          const int idx = input.Find(item.source);
          if (idx < 0) {
            return Status::InvalidArgument("projection of unknown column: " +
                                           item.source);
          }
          Column c = input.columns[idx];
          c.name = item.name;
          node->schema.columns.push_back(c);
        } else if (!item.count_product.empty()) {
          for (const std::string& source : item.count_product) {
            const int idx = input.Find(source);
            if (idx < 0 || input.columns[idx].kind != Column::Kind::kCount) {
              return Status::InvalidArgument(
                  "count product over non-count column: " + source);
            }
          }
          node->schema.columns.push_back(
              Column::CountCol(item.name, kInvalidTerm, ""));
        } else {
          if (item.expr == nullptr) {
            return Status::InvalidArgument(
                "projection item needs a source or an expression");
          }
          // Compilation validates the expression's column references.
          auto compiled = CompiledScoreExpr::Compile(*item.expr, input);
          if (!compiled.ok()) return compiled.status();
          node->schema.columns.push_back(Column::Score(item.name));
        }
      }
      return Status::Ok();
    }
    case OpKind::kAntiJoin: {
      if (node->children.size() != 2) {
        return Status::InvalidArgument("anti-join must have two children");
      }
      node->schema = node->children[0]->schema;
      return Status::Ok();
    }
    case OpKind::kGroup: {
      if (node->children.size() != 1) {
        return Status::InvalidArgument("group must have one child");
      }
      const Schema& input = node->children[0]->schema;
      for (const GroupSpec::ScoreAgg& agg : node->group.score_aggs) {
        const int idx = input.Find(agg.input);
        if (idx < 0 || input.columns[idx].kind != Column::Kind::kScore) {
          return Status::InvalidArgument("⊕ aggregation of non-score "
                                         "column: " +
                                         agg.input);
        }
        if (!agg.scale_count.empty()) {
          const int cidx = input.Find(agg.scale_count);
          if (cidx < 0 || input.columns[cidx].kind != Column::Kind::kCount) {
            return Status::InvalidArgument("⊗ weight is not a count "
                                           "column: " +
                                           agg.scale_count);
          }
        }
        node->schema.columns.push_back(Column::Score(agg.output));
      }
      if (!node->group.count_output.empty()) {
        const std::string& keyword = node->group.count_keyword;
        const TermId term =
            keyword.empty() ? kInvalidTerm : index.LookupTerm(keyword);
        node->schema.columns.push_back(
            Column::CountCol(node->group.count_output, term, keyword));
      }
      return Status::Ok();
    }
    case OpKind::kAltElim: {
      if (node->children.size() != 1) {
        return Status::InvalidArgument("alt-elim must have one child");
      }
      node->schema = node->children[0]->schema;
      return Status::Ok();
    }
    case OpKind::kSort: {
      if (node->children.size() != 1) {
        return Status::InvalidArgument("sort must have one child");
      }
      node->schema = node->children[0]->schema;
      return Status::Ok();
    }
  }
  return Status::Internal("unknown plan node kind");
}

void PrintNode(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(OpKindName(node.kind));
  switch (node.kind) {
    case OpKind::kAtom:
      out->append("('" + node.keyword + "', d, " + node.output_column + ")");
      break;
    case OpKind::kPreCountAtom:
      out->append("('" + node.keyword + "', d, " + node.output_column + ")");
      break;
    case OpKind::kSelect:
    case OpKind::kJoin: {
      if (!node.predicates.empty()) {
        out->append("[");
        for (size_t i = 0; i < node.predicates.size(); ++i) {
          if (i > 0) out->append(" ∧ ");
          out->append(node.predicates[i].ToString());
        }
        out->append("]");
      }
      break;
    }
    case OpKind::kProject: {
      out->append("{");
      for (size_t i = 0; i < node.items.size(); ++i) {
        if (i > 0) out->append(", ");
        const ProjectItem& item = node.items[i];
        if (!item.source.empty()) {
          out->append(item.name);
        } else if (!item.count_product.empty()) {
          out->append(item.name + ":");
          for (size_t j = 0; j < item.count_product.size(); ++j) {
            if (j > 0) out->append("×");
            out->append(item.count_product[j]);
          }
        } else {
          out->append(item.name + ":" + (item.finalize ? "ω(" : "") +
                      item.expr->ToString() + (item.finalize ? ")" : ""));
        }
      }
      out->append("}");
      break;
    }
    case OpKind::kGroup: {
      out->append("{d | ");
      bool first = true;
      for (const GroupSpec::ScoreAgg& agg : node.group.score_aggs) {
        if (!first) out->append(", ");
        first = false;
        out->append(agg.output + ":⊕(" + agg.input);
        if (!agg.scale_count.empty()) {
          out->append("⊗" + agg.scale_count);
        }
        out->append(")");
      }
      if (!node.group.count_output.empty()) {
        if (!first) out->append(", ");
        out->append(node.group.count_output + ":COUNT(*)");
      }
      out->append("}");
      break;
    }
    default:
      break;
  }
  out->append("  -> " + node.schema.ToString());
  out->append("\n");
  for (const PlanNodePtr& child : node.children) {
    PrintNode(*child, depth + 1, out);
  }
}

}  // namespace

Status ResolvePlan(PlanNode* root, const index::InvertedIndex& index) {
  return ResolveNode(root, index);
}

std::string PlanToString(const PlanNode& root) {
  std::string out;
  PrintNode(root, 0, &out);
  return out;
}

}  // namespace graft::ma
