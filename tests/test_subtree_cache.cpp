/// Tests for service/subtree_cache.hpp: cross-model subtree reuse,
/// budget keying, LRU/byte budgets, and memoized-equals-unmemoized
/// fronts.

#include "service/subtree_cache.hpp"

#include <gtest/gtest.h>

#include "at/parser.hpp"
#include "core/enumerative.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace atcd {
namespace {

using engine::BatchOptions;
using engine::Instance;
using engine::Problem;
using service::SubtreeCache;
using testing::fronts_equal;

/// A small handmade model: OR(sub, extra) with sub = AND(a, b).
CdAt host_with_shared_subtree(const std::string& prefix, double extra_cost) {
  AttackTree t;
  const NodeId a = t.add_bas(prefix + "a");
  const NodeId b = t.add_bas(prefix + "b");
  const NodeId sub = t.add_gate(NodeType::AND, prefix + "sub", {a, b});
  const NodeId x = t.add_bas(prefix + "x");
  t.add_gate(NodeType::OR, prefix + "root", {sub, x});
  t.finalize();
  CdAt m;
  m.tree = std::move(t);
  // BAS order: a, b, x.
  m.cost = {2.0, 3.0, extra_cost};
  m.damage = std::vector<double>(m.tree.node_count(), 0.0);
  m.damage[a] = 4.0;
  m.damage[b] = 1.0;
  m.damage[sub] = 5.0;
  return m;
}

TEST(SubtreeCache, ReusesFrontsAcrossDistinctModels) {
  SubtreeCache cache;
  BatchOptions opt;
  opt.subtree = &cache;

  // Two different models (different extra leaf, different names) that
  // share the decorated AND(a,b) subtree.
  const CdAt m1 = host_with_shared_subtree("p.", 7.0);
  const CdAt m2 = host_with_shared_subtree("q.", 9.0);

  const auto r1 = engine::solve_one(Instance::of(Problem::Cdpf, m1), opt);
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_EQ(r1.backend, "bottom-up");
  const auto after_first = cache.stats();
  EXPECT_GT(after_first.insertions, 0u);
  EXPECT_EQ(after_first.hits, 0u);

  const auto r2 = engine::solve_one(Instance::of(Problem::Cdpf, m2), opt);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_GT(cache.stats().hits, after_first.hits);  // the shared subtree

  // Results are unchanged by memoization.
  EXPECT_TRUE(fronts_equal(r1.front, cdpf_enumerative(m1)));
  EXPECT_TRUE(fronts_equal(r2.front, cdpf_enumerative(m2)));
}

TEST(SubtreeCache, SecondSolveOfSameModelHitsEverywhere) {
  SubtreeCache::Config cfg;
  cfg.min_leaves = 2;
  SubtreeCache cache(cfg);
  BatchOptions opt;
  opt.subtree = &cache;

  Rng rng(99);
  const CdAt m = testing::random_cdat(rng, 9, /*treelike=*/true);
  const auto r1 = engine::solve_one(Instance::of(Problem::Cdpf, m), opt);
  ASSERT_TRUE(r1.ok) << r1.error;
  const auto s1 = cache.stats();
  const auto r2 = engine::solve_one(Instance::of(Problem::Cdpf, m), opt);
  ASSERT_TRUE(r2.ok) << r2.error;
  const auto s2 = cache.stats();
  // The root front comes straight from the cache: exactly one hit, no
  // new insertions (every reachable node short-circuits at the root).
  EXPECT_EQ(s2.hits, s1.hits + 1);
  EXPECT_EQ(s2.insertions, s1.insertions);
  EXPECT_TRUE(fronts_equal(r1.front, r2.front));
}

TEST(SubtreeCache, RenamedAndPermutedSubtreesShareEntries) {
  SubtreeCache cache;
  BatchOptions opt;
  opt.subtree = &cache;

  // Same decorated structure, different names and child order.
  const auto parse = [](const std::string& text) {
    ParsedModel p = parse_model(text);
    CdAt m;
    m.tree = std::move(p.tree);
    m.cost = std::move(p.cost);
    m.damage = std::move(p.damage);
    return m;
  };
  const CdAt m1 = parse(
      "bas a cost=1 damage=2\n"
      "bas b cost=4 damage=1\n"
      "and g = a, b damage=3\n");
  const CdAt m2 = parse(
      "bas u cost=4 damage=1\n"
      "bas v cost=1 damage=2\n"
      "and h = u, v damage=3\n");

  ASSERT_TRUE(engine::solve_one(Instance::of(Problem::Cdpf, m1), opt).ok);
  const auto r = engine::solve_one(Instance::of(Problem::Cdpf, m2), opt);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_TRUE(fronts_equal(r.front, cdpf_enumerative(m2)));
  // The reused witnesses are re-indexed into m2's BAS space: every front
  // point's witness must evaluate to its own (cost, damage).
  for (const auto& p : r.front) {
    EXPECT_NEAR(total_cost(m2, p.witness), p.value.cost, 1e-9);
    EXPECT_NEAR(total_damage(m2, p.witness), p.value.damage, 1e-9);
  }
}

TEST(SubtreeCache, BudgetIsPartOfTheKey) {
  SubtreeCache cache;
  BatchOptions opt;
  opt.subtree = &cache;

  Rng rng(7);
  const CdAt m = testing::random_cdat(rng, 8, /*treelike=*/true);
  const auto r1 =
      engine::solve_one(Instance::of(Problem::Dgc, m, /*bound=*/10.0), opt);
  ASSERT_TRUE(r1.ok) << r1.error;
  const auto s1 = cache.stats();
  // A different budget prunes differently: it must not see budget-10
  // entries (no hits), and its results stay exact.
  const auto r2 =
      engine::solve_one(Instance::of(Problem::Dgc, m, /*bound=*/5.0), opt);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(cache.stats().hits, s1.hits);
  const auto oracle = dgc_enumerative(m, 5.0);
  EXPECT_EQ(r2.attack.feasible, oracle.feasible);
  if (oracle.feasible) EXPECT_NEAR(r2.attack.damage, oracle.damage, 1e-9);
}

TEST(SubtreeCache, DagModelsBypassTheCache) {
  SubtreeCache cache;
  Rng rng(3);
  const CdAt dag = testing::random_cdat(rng, 6, /*treelike=*/false);
  EXPECT_EQ(cache.bind(dag, kNoBudget), nullptr);
}

TEST(SubtreeCache, EvictsToEntryBudget) {
  SubtreeCache::Config cfg;
  cfg.shards = 1;
  cfg.max_entries = 4;
  SubtreeCache cache(cfg);
  BatchOptions opt;
  opt.subtree = &cache;
  Rng rng(11);
  for (int i = 0; i < 8; ++i) {
    const CdAt m = testing::random_cdat(rng, 10, /*treelike=*/true);
    ASSERT_TRUE(engine::solve_one(Instance::of(Problem::Cdpf, m), opt).ok);
  }
  const auto s = cache.stats();
  EXPECT_LE(s.entries, 4u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.entries + s.evictions, s.insertions);
}

TEST(SubtreeCache, ClearResetsResidency) {
  SubtreeCache cache;
  BatchOptions opt;
  opt.subtree = &cache;
  Rng rng(12);
  const CdAt m = testing::random_cdat(rng, 8, /*treelike=*/true);
  ASSERT_TRUE(engine::solve_one(Instance::of(Problem::Cdpf, m), opt).ok);
  EXPECT_GT(cache.stats().entries, 0u);
  EXPECT_GT(cache.stats().bytes, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

/// Memoized solves must be bit-compatible with unmemoized ones across
/// problems and model kinds.
TEST(SubtreeCache, MemoizedEqualsUnmemoized) {
  Rng rng(31);
  SubtreeCache cache;
  BatchOptions with, without;
  with.subtree = &cache;
  for (int i = 0; i < 20; ++i) {
    const CdpAt mp = testing::random_cdpat(rng, 8, /*treelike=*/true);
    const CdAt md = mp.deterministic();
    for (const Problem p : {Problem::Cdpf, Problem::Dgc, Problem::Cgd}) {
      const double bound = p == Problem::Cdpf ? 0.0 : rng.uniform(0.0, 30.0);
      const auto a = engine::solve_one(Instance::of(p, md, bound), with);
      const auto b = engine::solve_one(Instance::of(p, md, bound), without);
      ASSERT_EQ(a.ok, b.ok) << a.error << b.error;
      if (engine::is_front(p)) {
        EXPECT_TRUE(fronts_equal(a.front, b.front));
      } else {
        EXPECT_EQ(a.attack.feasible, b.attack.feasible);
        if (a.attack.feasible) {
          EXPECT_DOUBLE_EQ(a.attack.cost, b.attack.cost);
          EXPECT_DOUBLE_EQ(a.attack.damage, b.attack.damage);
        }
      }
    }
    for (const Problem p : {Problem::Cedpf, Problem::Edgc, Problem::Cged}) {
      const double bound = p == Problem::Cedpf ? 0.0 : rng.uniform(0.0, 30.0);
      const auto a = engine::solve_one(Instance::of(p, mp, bound), with);
      const auto b = engine::solve_one(Instance::of(p, mp, bound), without);
      ASSERT_EQ(a.ok, b.ok) << a.error << b.error;
      if (engine::is_front(p)) {
        EXPECT_TRUE(fronts_equal(a.front, b.front));
      } else {
        EXPECT_EQ(a.attack.feasible, b.attack.feasible);
        if (a.attack.feasible) {
          EXPECT_DOUBLE_EQ(a.attack.cost, b.attack.cost);
          EXPECT_DOUBLE_EQ(a.attack.damage, b.attack.damage);
        }
      }
    }
  }
}

}  // namespace
}  // namespace atcd
