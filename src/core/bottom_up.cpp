#include "core/bottom_up.hpp"

#include <algorithm>
#include <cmath>

#include "core/bottom_up_prob.hpp"
#include "obs/trace.hpp"

namespace atcd {
namespace detail {
namespace {

std::vector<AttrTriple> prune(std::vector<AttrTriple> xs, double budget,
                              const SweepAblation& ablation) {
  if (ablation.ignore_activation) {
    // Ablation A1: forget the activation coordinate before minimizing.
    // This reproduces the unsound "naive 2-D propagation" of Example 4.
    for (auto& x : xs) x.t.act = 0.0;
  }
  return ablation.quadratic_prune ? prune_min_quadratic(std::move(xs), budget)
                                  : prune_min(std::move(xs), budget);
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
  double budget;
  const SweepAblation& ablation;

  std::vector<AttrTriple> at(NodeId v) const {
    const auto& n = tree.node(v);
    if (n.type == NodeType::BAS) {
      std::vector<AttrTriple> r;
      r.push_back({Triple{0.0, 0.0, 0.0}, Attack(tree.bas_count())});
      const double c = cost[n.bas_index];
      if (c <= budget) {
        const double p = prob[n.bas_index];
        Attack w(tree.bas_count());
        w.set(n.bas_index);
        r.push_back({Triple{c, p * damage[v], p}, std::move(w)});
      }
      return prune(std::move(r), budget, ablation);
    }
    // Fold the children left to right; pruning between folds is sound
    // because the remaining combinators are monotone in every coordinate.
    std::vector<AttrTriple> acc = at(n.children[0]);
    for (std::size_t i = 1; i < n.children.size(); ++i)
      acc = prune(combine(acc, at(n.children[i]), n.type), budget, ablation);
    // Add this node's own damage, weighted by its activation (det.: 0/1).
    for (auto& x : acc) x.t.damage += x.t.act * damage[v];
    return prune(std::move(acc), budget, ablation);
  }
};

}  // namespace

std::vector<AttrTriple> bottom_up_root_front_reference(
    const AttackTree& tree, const std::vector<double>& cost,
    const std::vector<double>& damage, const std::vector<double>& prob,
    double budget, const SweepAblation& ablation) {
  if (!tree.finalized())
    throw ModelError("bottom_up: tree not finalized");
  if (!tree.is_treelike())
    throw UnsupportedError(
        "bottom_up: model is DAG-shaped; sub-AT attack spaces are not "
        "disjoint, use the BILP engine (deterministic) or the BDD engine "
        "(probabilistic) instead");
  return Sweep{tree, cost, damage, prob, budget, ablation}.at(tree.root());
}

namespace {

/// The greedy's state: every node's activation probability under the
/// BASs picked so far (0/1 on deterministic models).
struct Activation {
  const AttackTree& tree;
  const std::vector<double>& damage;
  std::vector<double> act;

  /// Gate u's activation if its child c had activation pc.
  double gate_act(NodeId u, NodeId c, double pc) const {
    const bool is_and = tree.type(u) == NodeType::AND;
    double q = 1.0;
    for (const NodeId k : tree.children(u)) {
      const double pk = k == c ? pc : act[k];
      q *= is_and ? pk : 1.0 - pk;
    }
    return is_and ? q : 1.0 - q;
  }

  /// The damage gained by setting node v's activation to p, walking up
  /// while activations change; with \p commit the new state is kept.
  double raise(NodeId v, double p, bool commit) {
    double gain = 0.0;
    for (;;) {
      if (p == act[v]) break;
      gain += damage[v] * (p - act[v]);
      const auto& ps = tree.parents(v);
      const double up = ps.empty() ? 0.0 : gate_act(ps[0], v, p);
      if (commit) act[v] = p;
      if (ps.empty()) break;
      v = ps[0];
      p = up;
    }
    return gain;
  }
};

/// The root's (expected) damage of the attack whose BASs have the
/// activations \p bas_act (per node; 0 = not taken), in the sweep's
/// floating-point order: a BAS contributes act * damage, a gate folds
/// its children left to right (damages add, activations combine by the
/// gate operator) and then adds act * its own damage.
double sweep_damage(const AttackTree& tree, const std::vector<double>& damage,
                    const std::vector<double>& bas_act) {
  std::vector<double> act(tree.node_count()), dmg(tree.node_count());
  for (const NodeId v : tree.topological_order()) {
    if (tree.is_bas(v)) {
      act[v] = bas_act[v];
      dmg[v] = act[v] * damage[v];
      continue;
    }
    const bool is_and = tree.type(v) == NodeType::AND;
    const auto& cs = tree.children(v);
    double a = act[cs[0]], d = dmg[cs[0]];
    for (std::size_t i = 1; i < cs.size(); ++i) {
      const double b = act[cs[i]];
      d = d + dmg[cs[i]];
      a = is_and ? a * b : a + b - a * b;
    }
    act[v] = a;
    dmg[v] = d + a * damage[v];
  }
  return dmg[tree.root()];
}

}  // namespace

double cost_bound(const AttackTree& tree, const std::vector<double>& cost,
                  const std::vector<double>& damage,
                  const std::vector<double>& prob, double threshold) {
  if (std::isnan(threshold)) return kNoBudget;
  if (threshold <= 0.0) return 0.0;  // the empty attack
  Activation g{tree, damage, std::vector<double>(tree.node_count(), 0.0)};
  double reached = 0.0;
  struct Cand {
    double ratio;  ///< marginal damage per cost when last evaluated
    std::uint32_t bas;
  };
  std::vector<Cand> heap;
  for (std::uint32_t i = 0; i < tree.bas_count(); ++i) {
    if (!(prob[i] > 0.0)) continue;
    if (cost[i] == 0.0)  // free: taking it never raises the bound
      reached += g.raise(tree.bas_id(i), prob[i], true);
    else
      heap.push_back({0.0, i});
  }
  // Best ratio first; ties go to the cheaper, then the lower BAS index.
  const auto worse = [&](const Cand& a, const Cand& b) {
    if (a.ratio != b.ratio) return a.ratio < b.ratio;
    if (cost[a.bas] != cost[b.bas]) return cost[a.bas] > cost[b.bas];
    return a.bas > b.bas;
  };
  const auto ratio = [&](std::uint32_t i) {
    return g.raise(tree.bas_id(i), prob[i], false) / cost[i];
  };
  for (Cand& c : heap) c.ratio = ratio(c.bas);
  std::make_heap(heap.begin(), heap.end(), worse);
  // Lazy greedy: a popped candidate whose re-evaluated ratio still ranks
  // first is taken; otherwise it goes back with its current ratio.
  std::vector<std::uint32_t> taken;
  while (reached < threshold && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    Cand c = heap.back();
    heap.pop_back();
    c.ratio = ratio(c.bas);
    if (!heap.empty() && worse(c, heap.front())) {
      heap.push_back(c);
      std::push_heap(heap.begin(), heap.end(), worse);
      continue;
    }
    reached += g.raise(tree.bas_id(c.bas), prob[c.bas], true);
    taken.push_back(c.bas);
  }
  if (reached < threshold) return kNoBudget;
  // Drop what the threshold no longer needs, dearest first.
  std::sort(taken.begin(), taken.end(), [&](std::uint32_t a, std::uint32_t b) {
    return cost[a] > cost[b];
  });
  double spent = 0.0;
  for (const std::uint32_t i : taken) {
    const double loss = g.raise(tree.bas_id(i), 0.0, false);
    if (reached + loss >= threshold)
      reached += g.raise(tree.bas_id(i), 0.0, true);
    else
      spent += cost[i];
  }
  // The greedy summed damage in pick order; the sweep sums it in tree
  // order.  Certify the attack with the sweep's own arithmetic, so a
  // bound is only returned for an attack the pruned front keeps a point
  // for at or above the threshold (exactly so on deterministic models:
  // sums and products with nonnegative terms are monotone in IEEE
  // arithmetic).  An attack that misses by a rounding gets no bound,
  // so the CgD sweep runs once, unpruned, instead of twice.
  if (sweep_damage(tree, damage, g.act) < threshold) return kNoBudget;
  // The sweep sums the same costs in another order; the slack keeps
  // this attack inside the bound whatever that order rounds to.
  return spent + spent * 1e-9;
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

/// CgD/CgED (eq. (2)) on the front of the attacks costing at most
/// \p budget.  Every such attack keeps its point, witness and order
/// (only cheaper-or-equal points can dominate it), so whenever that
/// front reaches \p threshold its cheapest such point is the full
/// front's.  When it does not — a budget below the optimum — the sweep
/// re-runs unpruned, so the answer is exact whatever the budget.
OptAttack cheapest_reaching(const AttackTree& tree,
                            const std::vector<double>& cost,
                            const std::vector<double>& damage,
                            const std::vector<double>& prob,
                            double threshold, double budget,
                            detail::SubtreeVisitor* visitor) {
  const auto answer = [&](double u, detail::SubtreeVisitor* vis) {
    detail::BottomUpOptions opt;
    opt.budget = u;
    opt.visitor = vis;
    return from_front_point(
        project_front(
            detail::bottom_up_root_front(tree, cost, damage, prob, opt))
            .min_cost_with_damage(threshold));
  };
  OptAttack r = answer(budget, visitor);
  // The visitor is bound to the pruned budget class: re-sweep without it.
  const bool rerun = !r.feasible && budget != kNoBudget;
  if (rerun) r = answer(kNoBudget, nullptr);
  if (obs::Trace* tr = obs::current_trace()) {
    double total = 0.0;
    for (const double c : cost) total += c;
    const double share = budget < total ? budget / total : 1.0;
    tr->fact("cgd_prune_bound_ppm",
             static_cast<std::uint64_t>(std::llround(share * 1e6)));
    tr->fact("cgd_full_rerun", rerun ? 1 : 0);
  }
  return r;
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

double cgd_prune_budget(const CdAt& m, double threshold) {
  m.validate();
  return detail::cost_bound(m.tree, m.cost, m.damage, unit_probs(m.tree),
                            threshold);
}

OptAttack cgd_bottom_up(const CdAt& m, double threshold) {
  return cgd_bottom_up(m, threshold, cgd_prune_budget(m, threshold));
}

OptAttack cgd_bottom_up(const CdAt& m, double threshold, double budget,
                        detail::SubtreeVisitor* visitor) {
  m.validate();
  return cheapest_reaching(m.tree, m.cost, m.damage, unit_probs(m.tree),
                           threshold, budget, visitor);
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

double cged_prune_budget(const CdpAt& m, double threshold) {
  m.validate();
  return detail::cost_bound(m.tree, m.cost, m.damage, m.prob, threshold);
}

OptAttack cged_bottom_up(const CdpAt& m, double threshold) {
  return cged_bottom_up(m, threshold, cged_prune_budget(m, threshold));
}

OptAttack cged_bottom_up(const CdpAt& m, double threshold, double budget,
                         detail::SubtreeVisitor* visitor) {
  m.validate();
  return cheapest_reaching(m.tree, m.cost, m.damage, m.prob, threshold,
                           budget, visitor);
}

}  // namespace atcd
