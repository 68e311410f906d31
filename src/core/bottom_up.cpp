#include "core/bottom_up.hpp"

#include "core/bottom_up_prob.hpp"

namespace atcd {
namespace detail {
namespace {

std::vector<AttrTriple> prune(std::vector<AttrTriple> xs,
                              const BottomUpOptions& opt) {
  if (opt.ignore_activation) {
    // Ablation A1: forget the activation coordinate before minimizing.
    // This reproduces the unsound "naive 2-D propagation" of Example 4.
    for (auto& x : xs) x.t.act = 0.0;
  }
  return opt.quadratic_prune ? prune_min_quadratic(std::move(xs), opt.budget)
                             : prune_min(std::move(xs), opt.budget);
}

/// Combines the fronts of two disjoint sub-ATs (eqs. (4), (5), (8)-(10)):
/// costs and damages add; activations combine by the gate operator.  The
/// parent's own damage is NOT added here — the caller adds it once after
/// folding all children.
std::vector<AttrTriple> combine(const std::vector<AttrTriple>& a,
                                const std::vector<AttrTriple>& b,
                                NodeType gate) {
  std::vector<AttrTriple> out;
  out.reserve(a.size() * b.size());
  for (const auto& x : a) {
    for (const auto& y : b) {
      const double act = gate == NodeType::AND
                             ? x.t.act * y.t.act
                             : x.t.act + y.t.act - x.t.act * y.t.act;
      AttrTriple z;
      z.t = Triple{x.t.cost + y.t.cost, x.t.damage + y.t.damage, act};
      z.witness = x.witness;
      z.witness |= y.witness;
      out.push_back(std::move(z));
    }
  }
  return out;
}

struct Sweep {
  const AttackTree& tree;
  const std::vector<double>& cost;
  const std::vector<double>& damage;
  const std::vector<double>& prob;
  const BottomUpOptions& opt;

  std::vector<AttrTriple> at(NodeId v) const {
    const auto& n = tree.node(v);
    if (n.type == NodeType::BAS) {
      std::vector<AttrTriple> r;
      r.push_back({Triple{0.0, 0.0, 0.0}, Attack(tree.bas_count())});
      const double c = cost[n.bas_index];
      if (c <= opt.budget) {
        const double p = prob[n.bas_index];
        Attack w(tree.bas_count());
        w.set(n.bas_index);
        r.push_back({Triple{c, p * damage[v], p}, std::move(w)});
      }
      return prune(std::move(r), opt);
    }
    // Fold the children left to right; pruning between folds is sound
    // because the remaining combinators are monotone in every coordinate.
    std::vector<AttrTriple> acc = at(n.children[0]);
    for (std::size_t i = 1; i < n.children.size(); ++i)
      acc = prune(combine(acc, at(n.children[i]), n.type), opt);
    // Add this node's own damage, weighted by its activation (det.: 0/1).
    for (auto& x : acc) x.t.damage += x.t.act * damage[v];
    return prune(std::move(acc), opt);
  }
};

}  // namespace

std::vector<AttrTriple> bottom_up_root_front(const AttackTree& tree,
                                             const std::vector<double>& cost,
                                             const std::vector<double>& damage,
                                             const std::vector<double>& prob,
                                             const BottomUpOptions& opt) {
  if (!tree.finalized())
    throw ModelError("bottom_up: tree not finalized");
  if (!tree.is_treelike())
    throw UnsupportedError(
        "bottom_up: model is DAG-shaped; sub-AT attack spaces are not "
        "disjoint, use the BILP engine (deterministic) or the BDD engine "
        "(probabilistic) instead");
  // The ablation options only exist on the recursive sweep, which takes
  // no memo, so the unsound ablation's fronts cannot reach a cache.
  // Everything else runs the arena/SoA stack machine (byte-identical
  // results, see bottom_up_arena.cpp).
  if (opt.pointer_path || opt.quadratic_prune || opt.ignore_activation)
    return Sweep{tree, cost, damage, prob, opt}.at(tree.root());
  return bottom_up_root_front_arena(tree, cost, damage, prob, opt);
}

}  // namespace detail

namespace {

Front2d project_front(std::vector<AttrTriple> triples) {
  std::vector<FrontPoint> cands;
  cands.reserve(triples.size());
  for (auto& t : triples)
    cands.push_back({CdPoint{t.t.cost, t.t.damage}, std::move(t.witness)});
  return Front2d::of_candidates(std::move(cands));
}

OptAttack best_damage(std::vector<AttrTriple> triples) {
  OptAttack best;
  for (auto& t : triples) {
    if (!best.feasible || t.t.damage > best.damage ||
        (t.t.damage == best.damage && t.t.cost < best.cost)) {
      best = OptAttack{true, t.t.cost, t.t.damage, std::move(t.witness)};
    }
  }
  return best;
}

OptAttack from_front_point(const FrontPoint* p) {
  if (!p) return {};
  return OptAttack{true, p->value.cost, p->value.damage, p->witness};
}

std::vector<double> unit_probs(const AttackTree& t) {
  return std::vector<double>(t.bas_count(), 1.0);
}

}  // namespace

Front2d cdpf_bottom_up(const CdAt& m, detail::SubtreeVisitor* visitor) {
  m.validate();
  detail::BottomUpOptions opt;
  opt.visitor = visitor;
  return project_front(detail::bottom_up_root_front(
      m.tree, m.cost, m.damage, unit_probs(m.tree), opt));
}

OptAttack dgc_bottom_up(const CdAt& m, double budget,
                        detail::SubtreeVisitor* visitor) {
  m.validate();
  detail::BottomUpOptions opt;
  opt.budget = budget;
  opt.visitor = visitor;
  return best_damage(detail::bottom_up_root_front(m.tree, m.cost, m.damage,
                                                  unit_probs(m.tree), opt));
}

OptAttack cgd_bottom_up(const CdAt& m, double threshold,
                        detail::SubtreeVisitor* visitor) {
  return from_front_point(
      cdpf_bottom_up(m, visitor).min_cost_with_damage(threshold));
}

Front2d cedpf_bottom_up(const CdpAt& m, detail::SubtreeVisitor* visitor) {
  m.validate();
  detail::BottomUpOptions opt;
  opt.visitor = visitor;
  return project_front(
      detail::bottom_up_root_front(m.tree, m.cost, m.damage, m.prob, opt));
}

OptAttack edgc_bottom_up(const CdpAt& m, double budget,
                         detail::SubtreeVisitor* visitor) {
  m.validate();
  detail::BottomUpOptions opt;
  opt.budget = budget;
  opt.visitor = visitor;
  return best_damage(
      detail::bottom_up_root_front(m.tree, m.cost, m.damage, m.prob, opt));
}

OptAttack cged_bottom_up(const CdpAt& m, double threshold,
                         detail::SubtreeVisitor* visitor) {
  return from_front_point(
      cedpf_bottom_up(m, visitor).min_cost_with_damage(threshold));
}

}  // namespace atcd
