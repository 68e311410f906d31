/// \file builtin_backends.cpp
/// Adapters wrapping the library's solution methods as engine Backends,
/// plus Registry::with_builtins().  Capability metadata mirrors each
/// method's documented scope:
///
///   engine       | tree det | DAG det | tree prob | DAG prob | exact | fronts
///   enumerative  |    x     |    x    |     x     |          |  yes  |  yes
///   bottom-up    |    x     |         |     x     |          |  yes  |  yes
///   bilp         |    x     |    x    |           |          |  yes  |  yes
///   bdd          |          |         |     x     |    x     |  yes  |  yes
///   nsga2        |    x     |    x    |     x     |    x     |  no   |  yes
///   knapsack     |    x*    |    x*   |           |          |  yes  |  no
///
///   * additive models only (zero damage on internal nodes).

#include <memory>
#include <utility>

#include "bdd/at_bdd.hpp"
#include "core/bilp_method.hpp"
#include "core/bottom_up.hpp"
#include "core/bottom_up_prob.hpp"
#include "core/enumerative.hpp"
#include "core/knapsack.hpp"
#include "engine/registry.hpp"
#include "ga/nsga2.hpp"

namespace atcd::engine {
namespace {

/// Derives a single-objective answer from a front point (null = infeasible).
OptAttack from_front(const FrontPoint* p) {
  if (!p) return OptAttack{};
  return OptAttack{true, p->value.cost, p->value.damage, p->witness};
}

// ---------------------------------------------------------------------------

class EnumerativeBackend final : public Backend {
 public:
  const char* name() const override { return "enumerative"; }
  Capabilities capabilities() const override {
    Capabilities c;
    c.tree_det = c.dag_det = c.tree_prob = true;  // DAG prob needs the BDD
    c.exact = true;
    c.fronts = true;
    c.max_bas = kEnumDefaultCap;
    return c;
  }
  Front2d cdpf(const CdAt& m, const SolveContext&) const override {
    return cdpf_enumerative(m);
  }
  OptAttack dgc(const CdAt& m, double u, const SolveContext&) const override {
    return dgc_enumerative(m, u);
  }
  OptAttack cgd(const CdAt& m, double l, const SolveContext&) const override {
    return cgd_enumerative(m, l);
  }
  Front2d cedpf(const CdpAt& m, const SolveContext&) const override {
    return cedpf_enumerative(m);
  }
  OptAttack edgc(const CdpAt& m, double u,
                 const SolveContext&) const override {
    return edgc_enumerative(m, u);
  }
  OptAttack cged(const CdpAt& m, double l,
                 const SolveContext&) const override {
    return cged_enumerative(m, l);
  }
};

/// Binds the memo to the exact budget-class each sweep prunes with —
/// kNoBudget for the front problems, the budget for DgC/EDgC, and for
/// CgD/CgED the cost C of a cheap feasible attack: those sweep only the
/// attacks costing at most C (cgd_bottom_up).  A memo whose class is
/// fixed at kNoBudget (a CgD/CgED session's own) refuses C; such a solve
/// keeps the full-front sweep and its memo hits.  A session chained with
/// a shared cache binds the shared layer alone at C.
class BottomUpBackend final : public Backend {
 public:
  const char* name() const override { return "bottom-up"; }
  Capabilities capabilities() const override {
    Capabilities c;
    c.tree_det = c.tree_prob = true;  // unsound on DAGs (shared subtrees)
    c.exact = true;
    c.fronts = true;
    c.incremental = true;  // compositional sweep; subtree-memo aware
    return c;
  }
  Front2d cdpf(const CdAt& m, const SolveContext& ctx) const override {
    const auto vis = bind(ctx, m, kNoBudget);
    return cdpf_bottom_up(m, vis.get());
  }
  OptAttack dgc(const CdAt& m, double u,
                const SolveContext& ctx) const override {
    const auto vis = bind(ctx, m, u);
    return dgc_bottom_up(m, u, vis.get());
  }
  OptAttack cgd(const CdAt& m, double l,
                const SolveContext& ctx) const override {
    const auto [budget, vis] = bind_pruned(ctx, m, cgd_prune_budget(m, l));
    return cgd_bottom_up(m, l, budget, vis.get());
  }
  Front2d cedpf(const CdpAt& m, const SolveContext& ctx) const override {
    const auto vis = bind(ctx, m, kNoBudget);
    return cedpf_bottom_up(m, vis.get());
  }
  OptAttack edgc(const CdpAt& m, double u,
                 const SolveContext& ctx) const override {
    const auto vis = bind(ctx, m, u);
    return edgc_bottom_up(m, u, vis.get());
  }
  OptAttack cged(const CdpAt& m, double l,
                 const SolveContext& ctx) const override {
    const auto [budget, vis] = bind_pruned(ctx, m, cged_prune_budget(m, l));
    return cged_bottom_up(m, l, budget, vis.get());
  }

 private:
  template <class Model>
  static std::unique_ptr<atcd::detail::SubtreeVisitor> bind(
      const SolveContext& ctx, const Model& m, double budget) {
    return ctx.subtree ? ctx.subtree->bind(m, budget) : nullptr;
  }

  /// The budget a CgD/CgED sweep runs with and the memo bound to it:
  /// \p bound if the memo takes it (or there is none), else kNoBudget if
  /// the memo takes that.
  template <class Model>
  static std::pair<double, std::unique_ptr<atcd::detail::SubtreeVisitor>>
  bind_pruned(const SolveContext& ctx, const Model& m, double bound) {
    if (!ctx.subtree) return {bound, nullptr};
    if (auto vis = ctx.subtree->bind(m, bound)) return {bound, std::move(vis)};
    if (auto vis = ctx.subtree->bind(m, kNoBudget))
      return {kNoBudget, std::move(vis)};
    return {bound, nullptr};
  }
};

class BilpBackend final : public Backend {
 public:
  const char* name() const override { return "bilp"; }
  Capabilities capabilities() const override {
    Capabilities c;
    c.tree_det = c.dag_det = true;  // probabilistic DAGs: nonlinear (Sec. IX)
    c.exact = true;
    c.fronts = true;
    return c;
  }
  Front2d cdpf(const CdAt& m, const SolveContext&) const override {
    return cdpf_bilp(m);
  }
  OptAttack dgc(const CdAt& m, double u, const SolveContext&) const override {
    return dgc_bilp(m, u);
  }
  OptAttack cgd(const CdAt& m, double l, const SolveContext&) const override {
    return cgd_bilp(m, l);
  }
};

class BddBackend final : public Backend {
 public:
  const char* name() const override { return "bdd"; }
  Capabilities capabilities() const override {
    Capabilities c;
    c.tree_prob = c.dag_prob = true;  // the open-problem fallback
    c.exact = true;
    c.fronts = true;
    c.max_bas = 22;  // attack enumeration with exact BDD damages
    return c;
  }
  Front2d cedpf(const CdpAt& m, const SolveContext&) const override {
    return cedpf_bdd(m);
  }
  OptAttack edgc(const CdpAt& m, double u,
                 const SolveContext&) const override {
    return edgc_bdd(m, u);
  }
  OptAttack cged(const CdpAt& m, double l,
                 const SolveContext&) const override {
    return cged_bdd(m, l);
  }
};

/// NSGA-II: approximate, any model class.  Probabilistic DAGs are
/// evaluated with exact per-attack expected damages from the shared BDD;
/// single-objective problems are read off the approximated front.
class Nsga2Backend final : public Backend {
 public:
  const char* name() const override { return "nsga2"; }
  Capabilities capabilities() const override {
    Capabilities c;
    c.tree_det = c.dag_det = c.tree_prob = c.dag_prob = true;
    c.exact = false;  // attainable points, but the front may be incomplete
    c.fronts = true;
    return c;
  }
  Front2d cdpf(const CdAt& m, const SolveContext&) const override {
    return ga::nsga2_cdpf(m);
  }
  OptAttack dgc(const CdAt& m, double u,
                const SolveContext& ctx) const override {
    return from_front(cdpf(m, ctx).max_damage_within_cost(u));
  }
  OptAttack cgd(const CdAt& m, double l,
                const SolveContext& ctx) const override {
    return from_front(cdpf(m, ctx).min_cost_with_damage(l));
  }
  Front2d cedpf(const CdpAt& m, const SolveContext&) const override {
    if (m.tree.is_treelike()) return ga::nsga2_cedpf(m);
    const AtBdd bdd(m.tree);
    return ga::nsga2_front(
        m.tree.bas_count(),
        [&](const Attack& x) {
          return CdPoint{total_cost(m, x), bdd.expected_damage(m, x)};
        },
        ga::Nsga2Options{});
  }
  OptAttack edgc(const CdpAt& m, double u,
                 const SolveContext& ctx) const override {
    return from_front(cedpf(m, ctx).max_damage_within_cost(u));
  }
  OptAttack cged(const CdpAt& m, double l,
                 const SolveContext& ctx) const override {
    return from_front(cedpf(m, ctx).min_cost_with_damage(l));
  }
};

/// Knapsack: exact single-objective solver for *additive* deterministic
/// models — zero damage on every internal node makes d̂(x) = Σ x_i d_i,
/// so DgC is a 0/1 knapsack (Thm 1 read backwards) and CgD its covering
/// variant.  No fronts: an additive front can have 2^|B| points.
class KnapsackBackend final : public Backend {
 public:
  const char* name() const override { return "knapsack"; }
  Capabilities capabilities() const override {
    Capabilities c;
    c.tree_det = c.dag_det = true;
    c.exact = true;
    c.fronts = false;
    c.additive_only = true;
    return c;
  }
  OptAttack dgc(const CdAt& m, double u, const SolveContext&) const override {
    KnapsackInstance inst = to_instance(m, Problem::Dgc);
    inst.capacity = u;
    return solve_knapsack(inst);
  }
  OptAttack cgd(const CdAt& m, double l, const SolveContext&) const override {
    return solve_knapsack_cover(to_instance(m, Problem::Cgd), l);
  }

 private:
  KnapsackInstance to_instance(const CdAt& m, Problem p) const {
    const Traits t = traits_of(m);
    if (!t.additive) reject(p, t);
    KnapsackInstance inst;
    for (NodeId b : m.tree.bas_ids()) {
      inst.value.push_back(m.damage_of(b));
      inst.weight.push_back(m.cost_of(b));
    }
    return inst;
  }
};

}  // namespace

Registry Registry::with_builtins() {
  Registry r;
  r.add(std::make_shared<EnumerativeBackend>());
  r.add(std::make_shared<BottomUpBackend>());
  r.add(std::make_shared<BilpBackend>());
  r.add(std::make_shared<BddBackend>());
  r.add(std::make_shared<Nsga2Backend>());
  r.add(std::make_shared<KnapsackBackend>());
  return r;
}

}  // namespace atcd::engine
