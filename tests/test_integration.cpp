/// End-to-end integration tests across module boundaries: literature
/// building blocks -> random decorations -> text serialisation -> parse
/// -> engines.  Each test exercises a pipeline a downstream user would
/// actually run.

#include <gtest/gtest.h>

#include "at/dot.hpp"
#include "at/parser.hpp"
#include "bdd/at_bdd.hpp"
#include "core/enumerative.hpp"
#include "core/problems.hpp"
#include "gen/literature.hpp"
#include "gen/random_at.hpp"
#include "helpers.hpp"
#include "poly/poly_engine.hpp"

namespace atcd {
namespace {

using atcd::testing::fronts_equal;

TEST(Integration, EnginesAgreeOnEveryLiteratureBlock) {
  Rng rng(1001);
  for (const auto& block : gen::literature_blocks()) {
    const auto m = randomize_decorations(block.tree, rng);
    const auto det = m.deterministic();
    const auto oracle = cdpf(det, Engine::Enumerative);
    EXPECT_TRUE(fronts_equal(cdpf(det), oracle)) << block.name;
    if (block.treelike) {
      EXPECT_TRUE(fronts_equal(cdpf(det, Engine::Bilp), oracle))
          << block.name;
      EXPECT_TRUE(
          fronts_equal(cedpf(m), cedpf(m, Engine::Enumerative), 1e-7))
          << block.name;
    } else {
      // Probabilistic DAGs: the two open-problem engines must agree.
      EXPECT_TRUE(
          fronts_equal(cedpf(m, Engine::Bdd), cedpf_poly(m), 1e-7))
          << block.name;
    }
  }
}

TEST(Integration, SerialiseParseAnalyzePipeline) {
  // Generated model -> text -> parse -> identical analysis results.
  Rng rng(1002);
  gen::SuiteOptions opt;
  opt.max_n = 25;
  opt.per_size = 1;
  opt.treelike = true;
  for (const auto& e : gen::make_suite(opt, rng)) {
    if (e.tree.bas_count() > 14) continue;
    const auto m = randomize_decorations(e.tree, rng);
    const auto text = serialize_model(m.tree, m.cost, m.damage, &m.prob);
    const auto parsed = parse_model(text);
    const CdpAt back{parsed.tree, parsed.cost, parsed.damage, parsed.prob};
    ASSERT_TRUE(fronts_equal(cedpf(m), cedpf(back), 1e-9));
    ASSERT_TRUE(
        fronts_equal(cdpf(m.deterministic()), cdpf(back.deterministic())));
  }
}

TEST(Integration, DotExportCoversWholeGeneratedModels) {
  Rng rng(1004);
  const auto m = atcd::testing::random_cdpat(rng, 12, /*treelike=*/false);
  const auto dot = to_dot(m.tree, m.cost, m.damage, m.prob);
  // Every node appears exactly once as a declaration.
  for (NodeId v = 0; v < m.tree.node_count(); ++v) {
    const std::string decl = "n" + std::to_string(v) + " [";
    EXPECT_NE(dot.find(decl), std::string::npos) << v;
  }
  // Edge count matches the model.
  std::size_t arrows = 0;
  for (std::size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1))
    ++arrows;
  EXPECT_EQ(arrows, m.tree.edge_count());
}

TEST(Integration, ClassicAndCostDamageMetricsAreConsistent) {
  // min cost of a successful attack (BDD) equals the cheapest front
  // point that reaches the root.
  Rng rng(1005);
  for (int it = 0; it < 10; ++it) {
    const auto m = atcd::testing::random_cdat(rng, 9, it % 2 == 0);
    const double classic = min_cost_of_successful_attack(m);
    double from_front = std::numeric_limits<double>::infinity();
    // Scan all attacks for the cheapest successful one via the oracle
    // front + witnesses is not enough (front witnesses may be
    // unsuccessful), so enumerate.
    const std::size_t nb = m.tree.bas_count();
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << nb); ++mask) {
      const Attack x = Attack::from_mask(nb, mask);
      if (!is_successful(m.tree, x)) continue;
      from_front = std::min(from_front, total_cost(m, x));
    }
    ASSERT_NEAR(classic, from_front, 1e-9);
  }
}

TEST(Integration, BinarizationCommutesWithEveryEngine) {
  Rng rng(1006);
  for (int it = 0; it < 5; ++it) {
    const auto m = atcd::testing::random_cdpat(rng, 8, /*treelike=*/true);
    const auto bin = binarize_model(m);
    ASSERT_TRUE(fronts_equal(cedpf(m), cedpf(bin), 1e-9));
    ASSERT_TRUE(fronts_equal(cdpf(m.deterministic(), Engine::Bilp),
                             cdpf(bin.deterministic(), Engine::Bilp)));
  }
}

}  // namespace
}  // namespace atcd
