#include "defense/defense.hpp"

#include <gtest/gtest.h>

#include "casestudies/factory.hpp"
#include "core/problems.hpp"

namespace atcd::defense {
namespace {

std::vector<Countermeasure> factory_catalogue() {
  return {
      {"patch_it", 5.0, {"ca"}},          // stops the cyberattack
      {"steel_door", 2.0, {"fd"}},        // stops forcing the door
      {"bomb_detector", 4.0, {"pb"}},     // stops the bomb
  };
}

double cost_of(const CdAt& m, const char* bas) {
  return m.cost[m.tree.bas_index(*m.tree.find(bas))];
}

TEST(Defense, TheRuleScalesCostAndProbability) {
  const HardeningSemantics s{10.0, 0.25};
  EXPECT_EQ(hardened_cost(3.0, false, s), 3.0);
  EXPECT_EQ(hardened_cost(3.0, true, s), 30.0);
  // A free BAS is charged the bare factor: it must not stay free.
  EXPECT_EQ(hardened_cost(0.0, false, s), 0.0);
  EXPECT_EQ(hardened_cost(0.0, true, s), 10.0);
  EXPECT_EQ(hardened_prob(0.8, false, s), 0.8);
  EXPECT_EQ(hardened_prob(0.8, true, s), 0.2);
}

TEST(Defense, HardenMakesBassUnaffordableAtTheDefaultFactor) {
  const auto m = casestudies::make_factory();
  const auto hardened = harden(m, factory_catalogue(), {true, false, false},
                               HardeningSemantics{});
  EXPECT_EQ(cost_of(hardened, "ca"), 1e6);
  // The cyberattack path is gone: DgC with any sane budget can only use
  // the robot path.
  const auto r = dgc(hardened, 10.0);
  EXPECT_DOUBLE_EQ(r.damage, 310.0);
  EXPECT_DOUBLE_EQ(r.cost, 5.0);
  const auto tight = dgc(hardened, 2.0);
  EXPECT_DOUBLE_EQ(tight.damage, 10.0);  // only {fd}
}

TEST(Defense, FiniteCostFactorScalesInsteadOfRemoving) {
  const auto m = casestudies::make_factory();
  HardeningSemantics s;
  s.cost_factor = 10.0;
  const auto hardened =
      harden(m, factory_catalogue(), {true, false, false}, s);
  // ca now costs 10: still possible, just expensive.
  EXPECT_EQ(cost_of(hardened, "ca"), 10.0);
  const auto r = dgc(hardened, 10.0);
  EXPECT_DOUBLE_EQ(r.damage, 310.0);  // robot path is cheaper anyway
  EXPECT_DOUBLE_EQ(dgc(hardened, 100.0).damage, 310.0);  // all damage nodes
}

TEST(Defense, ZeroCostBasIsChargedTheBareFactor) {
  auto m = casestudies::make_factory();
  m.cost[m.tree.bas_index(*m.tree.find("ca"))] = 0.0;
  const auto hardened = harden(m, factory_catalogue(), {true, false, false},
                               HardeningSemantics{});
  EXPECT_EQ(cost_of(hardened, "ca"), 1e6);
  EXPECT_DOUBLE_EQ(dgc(hardened, 2.0).damage, 10.0);  // ca is out of reach
}

TEST(Defense, ABasNamedTwiceIsHardenedOnce) {
  const auto m = casestudies::make_factory();
  const std::vector<Countermeasure> twice{{"d1", 1.0, {"ca"}},
                                          {"d2", 1.0, {"ca", "fd"}}};
  HardeningSemantics s;
  s.cost_factor = 10.0;
  const auto both = harden(m, twice, {true, true}, s);
  EXPECT_EQ(cost_of(both, "ca"), 10.0);
  EXPECT_EQ(cost_of(both, "fd"), 20.0);
  EXPECT_EQ(cost_of(both, "pb"), 3.0);
  EXPECT_EQ(cost_of(harden(m, twice, {false, true}, s), "ca"), 10.0);
}

TEST(Defense, ProbabilisticHardeningScalesProbability) {
  const auto m = casestudies::make_factory_probabilistic();
  HardeningSemantics s;
  s.cost_factor = 1.0;
  s.prob_factor = 0.5;
  const auto hardened =
      harden(m, factory_catalogue(), {true, false, false}, s);
  EXPECT_DOUBLE_EQ(hardened.prob[m.tree.bas_index(*m.tree.find("ca"))], 0.1);
  EXPECT_DOUBLE_EQ(hardened.prob[m.tree.bas_index(*m.tree.find("pb"))], 0.4);
}

TEST(Defense, RejectsBadInput) {
  const auto m = casestudies::make_factory();
  EXPECT_THROW(harden(m, factory_catalogue(), {true}, {}), ModelError);
  std::vector<Countermeasure> bad{{"x", 1.0, {"nonexistent"}}};
  EXPECT_THROW(harden(m, bad, {true}, {}), ModelError);
  std::vector<Countermeasure> gate{{"x", 1.0, {"dr"}}};
  EXPECT_THROW(harden(m, gate, {true}, {}), ModelError);
}

}  // namespace
}  // namespace atcd::defense
