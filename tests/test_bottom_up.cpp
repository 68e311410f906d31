#include "core/bottom_up.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>

#include "at/transform.hpp"
#include "casestudies/factory.hpp"
#include "core/bottom_up_prob.hpp"
#include "core/enumerative.hpp"
#include "gen/random_at.hpp"
#include "helpers.hpp"
#include "obs/trace.hpp"

namespace atcd {
namespace {

using atcd::testing::front_is;
using atcd::testing::fronts_equal;

TEST(BottomUpDet, FactoryFrontMatchesEq3) {
  // PF(T) = {(0,0), (1,200), (3,210), (5,310)} (paper eq. (3), Fig. 3).
  const auto f = cdpf_bottom_up(casestudies::make_factory());
  EXPECT_TRUE(front_is(f, {{0, 0}, {1, 200}, {3, 210}, {5, 310}}));
}

TEST(BottomUpDet, FactoryWitnessesAreCorrectAttacks) {
  const auto m = casestudies::make_factory();
  const auto f = cdpf_bottom_up(m);
  for (const auto& p : f) {
    EXPECT_DOUBLE_EQ(total_cost(m, p.witness), p.value.cost);
    EXPECT_DOUBLE_EQ(total_damage(m, p.witness), p.value.damage);
  }
  // The (1,200) point is the cyberattack.
  EXPECT_EQ(attack_to_string(m.tree, f[1].witness), "{ca}");
}

TEST(BottomUpDet, DgcMatchesExample2) {
  const auto m = casestudies::make_factory();
  const auto r = dgc_bottom_up(m, 2.0);  // paper: d_opt = 200 for U = 2
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.damage, 200.0);
  EXPECT_DOUBLE_EQ(r.cost, 1.0);
}

TEST(BottomUpDet, DgcBudgetEdgeCases) {
  const auto m = casestudies::make_factory();
  // Zero budget: only the empty attack.
  const auto r0 = dgc_bottom_up(m, 0.0);
  ASSERT_TRUE(r0.feasible);
  EXPECT_DOUBLE_EQ(r0.damage, 0.0);
  // Budget exactly on an attack cost boundary is inclusive.
  EXPECT_DOUBLE_EQ(dgc_bottom_up(m, 1.0).damage, 200.0);
  EXPECT_DOUBLE_EQ(dgc_bottom_up(m, 4.999).damage, 210.0);
  EXPECT_DOUBLE_EQ(dgc_bottom_up(m, 5.0).damage, 310.0);
}

TEST(BottomUpDet, CgdMatchesFront) {
  const auto m = casestudies::make_factory();
  const auto r = cgd_bottom_up(m, 201.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 3.0);
  EXPECT_DOUBLE_EQ(r.damage, 210.0);
  EXPECT_FALSE(cgd_bottom_up(m, 311.0).feasible);
  // L = 0 is satisfied by the empty attack.
  const auto zero = cgd_bottom_up(m, 0.0);
  ASSERT_TRUE(zero.feasible);
  EXPECT_DOUBLE_EQ(zero.cost, 0.0);
}

TEST(BottomUpDet, RefusesDagModels) {
  Rng rng(31);
  for (int it = 0; it < 10; ++it) {
    const auto m = atcd::testing::random_cdat(rng, 6, /*treelike=*/false);
    if (m.tree.is_treelike()) continue;
    EXPECT_THROW(cdpf_bottom_up(m), UnsupportedError);
    return;
  }
  FAIL() << "no DAG generated";
}

TEST(BottomUpDet, Example6ExponentialFront) {
  // OR over BASs with c(v_i) = d(v_i) = 2^i: every one of the 2^n attacks
  // is Pareto-optimal (paper Example 6 / Thm 5).
  const int n = 8;
  CdAt m;
  std::vector<NodeId> cs;
  for (int i = 0; i < n; ++i) {
    cs.push_back(m.tree.add_bas("v" + std::to_string(i)));
    m.cost.push_back(std::pow(2.0, i));
  }
  m.tree.set_root(m.tree.add_gate(NodeType::OR, "root", cs));
  m.tree.finalize();
  m.damage.assign(m.tree.node_count(), 0.0);
  for (int i = 0; i < n; ++i) m.damage[cs[i]] = std::pow(2.0, i);
  const auto f = cdpf_bottom_up(m);
  EXPECT_EQ(f.size(), std::size_t{1} << n);
  // The front is the diagonal (k, k).
  for (std::size_t k = 0; k < f.size(); ++k) {
    EXPECT_DOUBLE_EQ(f[k].value.cost, static_cast<double>(k));
    EXPECT_DOUBLE_EQ(f[k].value.damage, static_cast<double>(k));
  }
}

TEST(BottomUpDet, SingleBasTree) {
  CdAt m;
  const auto b = m.tree.add_bas("b");
  m.tree.set_root(b);
  m.tree.finalize();
  m.cost = {2.0};
  m.damage = {5.0};
  const auto f = cdpf_bottom_up(m);
  EXPECT_TRUE(front_is(f, {{0, 0}, {2, 5}}));
  (void)b;
}

TEST(BottomUpDet, ZeroCostBasIsAlwaysTaken) {
  // A damage-carrying BAS with zero cost collapses the front's left edge.
  CdAt m;
  const auto a = m.tree.add_bas("free");
  const auto b = m.tree.add_bas("paid");
  m.tree.set_root(m.tree.add_gate(NodeType::OR, "root", {a, b}));
  m.tree.finalize();
  m.cost = {0.0, 1.0};
  m.damage.assign(m.tree.node_count(), 0.0);
  m.damage[a] = 3.0;
  m.damage[b] = 4.0;
  m.damage[m.tree.root()] = 1.0;
  const auto f = cdpf_bottom_up(m);
  // (0,4): free BAS + root; (1,8): both.
  EXPECT_TRUE(front_is(f, {{0, 4}, {1, 8}}));
}

TEST(BottomUpDet, NaryGatesEqualBinarizedForm) {
  // The n-ary fold must agree with the paper's binary formulation.
  Rng rng(77);
  for (int it = 0; it < 15; ++it) {
    const auto m = atcd::testing::random_cdat(rng, 8, /*treelike=*/true);
    const auto bin = binarize_model(m);
    EXPECT_TRUE(fronts_equal(cdpf_bottom_up(m), cdpf_bottom_up(bin)));
  }
}

TEST(BottomUpDet, AblationIgnoringActivationIsUnsound) {
  // Dropping the third DTrip coordinate must lose the (5,310) point of
  // the factory front: {pb} is pruned at dr (Example 4's failure mode).
  const auto m = casestudies::make_factory();
  detail::SweepAblation ablation;
  ablation.ignore_activation = true;
  const auto triples = detail::bottom_up_root_front_reference(
      m.tree, m.cost, m.damage, std::vector<double>(3, 1.0), kNoBudget,
      ablation);
  double best = 0;
  for (const auto& t : triples) best = std::max(best, t.t.damage);
  EXPECT_LT(best, 310.0);
}

TEST(BottomUpDet, Examples3To5IntermediateFronts) {
  // The paper's worked Examples 3-5 give the incomplete Pareto fronts
  // C^D_inf(v) at every node of the factory AT.  We reproduce them by
  // running the sweep on extracted subtrees (activation probabilities 1).
  const auto m = casestudies::make_factory();
  auto sub_front = [&](const char* node) {
    const auto s = subtree(m.tree, *m.tree.find(node));
    // Carry the decorations over to the subtree.
    CdAt sm;
    sm.tree = s.tree;
    sm.cost.resize(s.tree.bas_count());
    sm.damage.assign(s.tree.node_count(), 0.0);
    for (NodeId v = 0; v < m.tree.node_count(); ++v) {
      if (s.node_map[v] == kNoNode) continue;
      sm.damage[s.node_map[v]] = m.damage[v];
      if (m.tree.is_bas(v))
        sm.cost[s.tree.bas_index(s.node_map[v])] =
            m.cost[m.tree.bas_index(v)];
    }
    return detail::bottom_up_root_front(
        sm.tree, sm.cost, sm.damage,
        std::vector<double>(sm.tree.bas_count(), 1.0));
  };
  auto has = [](const std::vector<AttrTriple>& f, double c, double d,
                double b) {
    for (const auto& t : f)
      if (t.t == Triple{c, d, b}) return true;
    return false;
  };
  // Example 3/4: C at dr = {(0,0,0), (2,10,0), (5,110,1)};
  // (3,0,0) was discarded as dominated.
  const auto dr = sub_front("dr");
  EXPECT_EQ(dr.size(), 3u);
  EXPECT_TRUE(has(dr, 0, 0, 0));
  EXPECT_TRUE(has(dr, 2, 10, 0));
  EXPECT_TRUE(has(dr, 5, 110, 1));
  EXPECT_FALSE(has(dr, 3, 0, 0));
  // Example 5 at ps (root): of the six combined triples, (6,310,1) is
  // dominated by (5,310,1) and (2,10,0) by (1,200,1) (its underlines are
  // lost in the paper's text form but follow from ⊑), leaving four; their
  // projection is exactly eq. (3).
  const auto ps = sub_front("ps");
  EXPECT_EQ(ps.size(), 4u);
  EXPECT_TRUE(has(ps, 0, 0, 0));
  EXPECT_TRUE(has(ps, 1, 200, 1));
  EXPECT_TRUE(has(ps, 3, 210, 1));
  EXPECT_TRUE(has(ps, 5, 310, 1));
  EXPECT_FALSE(has(ps, 6, 310, 1));
  EXPECT_FALSE(has(ps, 2, 10, 0));
}

TEST(BottomUpProb, Example10TwoChildrenOr) {
  // OR(v1, v2), c = 1, p = 0.5 each, d(root) = 1: the probabilistic front
  // has the extra point (2, 0.75) that the deterministic front lacks.
  CdpAt m;
  const auto v1 = m.tree.add_bas("v1");
  const auto v2 = m.tree.add_bas("v2");
  const auto w = m.tree.add_gate(NodeType::OR, "w", {v1, v2});
  m.tree.set_root(w);
  m.tree.finalize();
  m.cost = {1.0, 1.0};
  m.prob = {0.5, 0.5};
  m.damage.assign(3, 0.0);
  m.damage[w] = 1.0;
  EXPECT_TRUE(
      front_is(cedpf_bottom_up(m), {{0, 0}, {1, 0.5}, {2, 0.75}}));
  // Deterministic: attacking both is wasted cost.
  EXPECT_TRUE(
      front_is(cdpf_bottom_up(m.deterministic()), {{0, 0}, {1, 1}}));
}

TEST(BottomUpProb, EdgcRespectsBudget) {
  const auto m = casestudies::make_factory_probabilistic();
  const auto r = edgc_bottom_up(m, 3.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.cost, 3.0);
  // Check optimality against enumeration.
  const auto e = edgc_enumerative(m, 3.0);
  EXPECT_NEAR(r.damage, e.damage, 1e-9);
}

TEST(BottomUpProb, CgedMatchesEnumeration) {
  const auto m = casestudies::make_factory_probabilistic();
  for (double L : {0.0, 10.0, 40.0, 117.0}) {
    const auto r = cged_bottom_up(m, L);
    const auto e = cged_enumerative(m, L);
    ASSERT_EQ(r.feasible, e.feasible) << L;
    if (r.feasible) EXPECT_NEAR(r.cost, e.cost, 1e-9) << L;
  }
}

TEST(BottomUpProb, InfeasibleThreshold) {
  const auto m = casestudies::make_factory_probabilistic();
  EXPECT_FALSE(cged_bottom_up(m, 1e6).feasible);
}

// ---------------------------------------------------------------------------
// Pruned CgD/CgED: the sweep keeps only attacks no dearer than a feasible
// one, and must answer exactly as the full front does.
// ---------------------------------------------------------------------------

/// Equal feasibility, bit-equal cost and damage, equal witness bits.
::testing::AssertionResult same_answer(const OptAttack& got,
                                       const OptAttack& want) {
  if (got.feasible != want.feasible)
    return ::testing::AssertionFailure()
           << "feasible " << got.feasible << " vs " << want.feasible;
  if (!want.feasible) return ::testing::AssertionSuccess();
  if (std::memcmp(&got.cost, &want.cost, sizeof(double)) != 0 ||
      std::memcmp(&got.damage, &want.damage, sizeof(double)) != 0)
    return ::testing::AssertionFailure()
           << "(" << got.cost << ", " << got.damage << ") vs ("
           << want.cost << ", " << want.damage << ")";
  if (got.witness != want.witness)
    return ::testing::AssertionFailure() << "witness differs";
  return ::testing::AssertionSuccess();
}

OptAttack full_front_answer(const Front2d& f, double threshold) {
  const FrontPoint* p = f.min_cost_with_damage(threshold);
  if (!p) return {};
  return OptAttack{true, p->value.cost, p->value.damage, p->witness};
}

/// Decoration families: the paper's Sec. X ranges, a quarter of the BASs
/// free, and decimal values whose sums round (0.1 + 0.2 != 0.3).
CdpAt decorate(const AttackTree& t, int family, Rng& rng) {
  CdpAt m = randomize_decorations(t, rng);
  if (family == 1) {
    for (auto& c : m.cost)
      if (rng.chance(0.25)) c = 0.0;
  } else if (family == 2) {
    static const double kDecimals[] = {0.1, 0.2, 0.7};
    for (auto& c : m.cost) c = kDecimals[rng.below(3)];
    for (auto& d : m.damage) d = kDecimals[rng.below(3)];
  }
  return m;
}

/// The thresholds to probe on front \p f: its breakpoints (each point's
/// damage d_i, where CgD(d_i) = c_i) — all of them, or \p limit evenly
/// spaced ones plus the last on a larger front — then 0, a negative
/// value, and just above the maximum damage (infeasible).
std::vector<double> thresholds_of(const Front2d& f, std::size_t limit) {
  std::vector<double> ls = {0.0, -1.0};
  const std::size_t n = f.size();
  const std::size_t step = n > limit ? (n + limit - 1) / limit : 1;
  for (std::size_t i = 0; i < n; i += step) ls.push_back(f[i].value.damage);
  const double top = n ? f[n - 1].value.damage : 0.0;
  ls.push_back(top);
  ls.push_back(std::nextafter(top, std::numeric_limits<double>::infinity()));
  return ls;
}

std::uint64_t fact_of(const obs::Trace& t, const char* name) {
  for (const auto& [k, v] : t.facts())
    if (k == name) return v;
  return 0;
}

/// One model's probes: the pruned answer at each threshold, and at the
/// middle breakpoint with half the optimum's cost as the budget (so the
/// pruned front misses the threshold and the unpruned re-sweep answers),
/// against the full front's.  Counts the probes and the re-sweeps the
/// greedy bound caused.
template <class Model, class Solve>
void expect_pruned_equals_full(const Model& m, const Front2d& f,
                               std::size_t limit, Solve solve,
                               const char* what, std::size_t* probes,
                               std::size_t* reruns) {
  for (const double l : thresholds_of(f, limit)) {
    ++*probes;
    obs::Trace t;
    {
      obs::TraceActivation on(&t);
      EXPECT_TRUE(same_answer(solve(m, l, -1.0), full_front_answer(f, l)))
          << what << ", L = " << l;
    }
    *reruns += fact_of(t, "cgd_full_rerun");
  }
  if (f.size() > 2) {
    const FrontPoint& p = f[f.size() / 2];
    obs::Trace t;
    {
      obs::TraceActivation on(&t);
      EXPECT_TRUE(same_answer(solve(m, p.value.damage, p.value.cost / 2),
                              full_front_answer(f, p.value.damage)))
          << what << " with a small budget, L = " << p.value.damage;
    }
    EXPECT_EQ(fact_of(t, "cgd_full_rerun"), 1u) << what;
  }
}

TEST(BottomUpPruned, CgdAndCgedEqualTheFullFrontAtItsBreakpoints) {
  // Budget < 0 below asks for the greedy bound (the two-argument form).
  const auto cgd = [](const CdAt& m, double l, double budget) {
    return budget < 0 ? cgd_bottom_up(m, l) : cgd_bottom_up(m, l, budget);
  };
  const auto cged = [](const CdpAt& m, double l, double budget) {
    return budget < 0 ? cged_bottom_up(m, l) : cged_bottom_up(m, l, budget);
  };
  gen::SuiteOptions opt;
  opt.max_n = 250;
  opt.per_size = 3;
  opt.treelike = true;
  Rng rng(0xC6D2);
  std::size_t models = 0, probes = 0, cgd_reruns = 0, cged_probes = 0,
              cged_reruns = 0;
  for (const auto& e : gen::make_suite(opt, rng)) {
    const std::size_t n = e.tree.node_count();
    if (n < 30 || n > 250) continue;
    const CdpAt pm = decorate(e.tree, static_cast<int>(models % 3), rng);
    ++models;
    // Every breakpoint up to 60 nodes; the fronts (and each sweep) grow
    // fast with size, so larger models probe 8 of them.
    const CdAt dm = pm.deterministic();
    expect_pruned_equals_full(dm, cdpf_bottom_up(dm), n <= 60 ? SIZE_MAX : 8,
                              cgd, "cgd", &probes, &cgd_reruns);
    // CEDPF fronts are larger still (Example 10): models up to 90 nodes.
    if (n <= 90)
      expect_pruned_equals_full(pm, cedpf_bottom_up(pm),
                                n <= 40 ? SIZE_MAX : 6, cged, "cged",
                                &cged_probes, &cged_reruns);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GE(models, 500u);
  // The greedy certifies its attack with the sweep's own arithmetic, so
  // on deterministic models a bound always leaves the threshold in the
  // pruned front: CgD never sweeps twice.
  EXPECT_EQ(cgd_reruns, 0u) << "of " << probes << " CgD probes";
  // CgED's greedy combines activations in another order than the sweep,
  // so its re-sweep stays the safety net; it is rare.
  EXPECT_LE(cged_reruns * 20, probes + cged_probes)
      << cged_reruns << " of " << cged_probes << " CgED probes";
  std::printf("CgD: %zu probes, %zu re-sweeps; CgED: %zu probes, %zu "
              "re-sweeps\n",
              probes, cgd_reruns, cged_probes, cged_reruns);
}

TEST(BottomUpPruned, ASmallBudgetReSweepsUnpruned) {
  const auto m = casestudies::make_factory();
  obs::Trace t;
  {
    obs::TraceActivation on(&t);
    const auto r = cgd_bottom_up(m, 201.0, 1.0);  // the optimum costs 3
    ASSERT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(r.cost, 3.0);
  }
  EXPECT_EQ(fact_of(t, "cgd_full_rerun"), 1u);
  // The bound as a share of the total cost (1 + 2 + 3), in millionths.
  EXPECT_EQ(fact_of(t, "cgd_prune_bound_ppm"), 166'667u);
}

TEST(BottomUpPruned, GreedyBoundIsAFeasibleAttacksCost) {
  const auto m = casestudies::make_factory();
  // L <= 0: the empty attack; above the maximum damage: none.
  EXPECT_EQ(cgd_prune_budget(m, 0.0), 0.0);
  EXPECT_EQ(cgd_prune_budget(m, -3.0), 0.0);
  EXPECT_EQ(cgd_prune_budget(m, 311.0), kNoBudget);
  Rng rng(41);
  for (int it = 0; it < 40; ++it) {
    const auto pm = atcd::testing::random_cdpat(rng, 9, /*treelike=*/true);
    const auto dm = pm.deterministic();
    const double dmax = dgc_enumerative(dm, kNoBudget).damage;
    for (const double frac : {0.2, 0.5, 0.8, 1.0}) {
      const double l = frac * dmax;
      const double c = cgd_prune_budget(dm, l);
      EXPECT_GE(c, cgd_enumerative(dm, l).cost) << l;
      EXPECT_LE(c, (1 + 1e-9) * std::accumulate(dm.cost.begin(),
                                                dm.cost.end(), 0.0));
    }
    const double emax = edgc_enumerative(pm, kNoBudget).damage;
    EXPECT_GE(cged_prune_budget(pm, 0.7 * emax),
              cged_enumerative(pm, 0.7 * emax).cost);
  }
}

}  // namespace
}  // namespace atcd
