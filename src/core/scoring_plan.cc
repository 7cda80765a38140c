#include "core/scoring_plan.h"

namespace graft::core {

namespace {

PhiNodePtr MakeVar(mcalc::VarId var) {
  auto node = std::make_unique<PhiNode>();
  node->kind = PhiNode::Kind::kVar;
  node->var = var;
  return node;
}

PhiNodePtr MakeBinary(PhiNode::Kind kind, PhiNodePtr left, PhiNodePtr right) {
  auto node = std::make_unique<PhiNode>();
  node->kind = kind;
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

// Returns null for subtrees erased by the Φ transformation (negations and
// dangling connectives).
PhiNodePtr Derive(const mcalc::Node& node) {
  switch (node.kind) {
    case mcalc::NodeKind::kKeyword:
      return MakeVar(node.var);
    case mcalc::NodeKind::kNot:
      return nullptr;  // "erase all negations"
    case mcalc::NodeKind::kConstrained:
      return Derive(*node.children[0]);  // "erase all non-HAS predicates"
    case mcalc::NodeKind::kAnd:
    case mcalc::NodeKind::kOr: {
      const PhiNode::Kind kind = node.kind == mcalc::NodeKind::kAnd
                                     ? PhiNode::Kind::kConj
                                     : PhiNode::Kind::kDisj;
      PhiNodePtr acc;
      for (const mcalc::NodePtr& child : node.children) {
        PhiNodePtr derived = Derive(*child);
        if (derived == nullptr) {
          continue;  // "erase dangling local connectives"
        }
        acc = acc == nullptr
                  ? std::move(derived)
                  : MakeBinary(kind, std::move(acc), std::move(derived));
      }
      return acc;
    }
  }
  return nullptr;
}

}  // namespace

PhiNodePtr PhiNode::Clone() const {
  auto copy = std::make_unique<PhiNode>();
  copy->kind = kind;
  copy->var = var;
  if (left != nullptr) copy->left = left->Clone();
  if (right != nullptr) copy->right = right->Clone();
  return copy;
}

std::string PhiNode::ToString() const {
  switch (kind) {
    case Kind::kVar:
      return ma::PosColumn(var);
    case Kind::kConj:
      return "(" + left->ToString() + " ⊘ " + right->ToString() + ")";
    case Kind::kDisj:
      return "(" + left->ToString() + " ⊚ " + right->ToString() + ")";
  }
  return "?";
}

StatusOr<PhiNodePtr> DeriveScoringPlan(const mcalc::Query& query) {
  if (query.root == nullptr) {
    return Status::InvalidArgument("query has no root");
  }
  PhiNodePtr phi = Derive(*query.root);
  if (phi == nullptr) {
    return Status::InvalidArgument(
        "query has no scorable keywords (all erased by Φ derivation)");
  }
  return phi;
}

ma::ScoreExprPtr PhiToScoreExpr(
    const PhiNode& phi,
    const std::function<ma::ScoreExprPtr(mcalc::VarId)>& leaf) {
  switch (phi.kind) {
    case PhiNode::Kind::kVar:
      return leaf(phi.var);
    case PhiNode::Kind::kConj:
      return ma::ScoreExpr::Conj(PhiToScoreExpr(*phi.left, leaf),
                                 PhiToScoreExpr(*phi.right, leaf));
    case PhiNode::Kind::kDisj:
      return ma::ScoreExpr::Disj(PhiToScoreExpr(*phi.left, leaf),
                                 PhiToScoreExpr(*phi.right, leaf));
  }
  return nullptr;
}

}  // namespace graft::core
