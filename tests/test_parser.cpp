#include "at/parser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>

#include "at/dot.hpp"
#include "casestudies/factory.hpp"
#include "core/cdat.hpp"
#include "core/problems.hpp"
#include "helpers.hpp"

namespace atcd {
namespace {

constexpr const char* kFactoryText = R"(
# Fig. 1 of the paper: factory production shutdown.
bas ca cost=1
bas pb cost=3
bas fd cost=2 damage=10
and dr = pb, fd damage=100
or ps = ca, dr damage=200
root ps
)";

TEST(Parser, ParsesTheFactoryModel) {
  const auto m = parse_model(kFactoryText);
  EXPECT_EQ(m.tree.node_count(), 5u);
  EXPECT_EQ(m.tree.bas_count(), 3u);
  EXPECT_EQ(m.tree.name(m.tree.root()), "ps");
  EXPECT_DOUBLE_EQ(m.cost[m.tree.bas_index(*m.tree.find("pb"))], 3.0);
  EXPECT_DOUBLE_EQ(m.damage[*m.tree.find("dr")], 100.0);
  EXPECT_DOUBLE_EQ(m.prob[0], 1.0);  // default
}

TEST(Parser, ParsedModelMatchesBuiltModel) {
  const auto parsed = parse_model(kFactoryText);
  const CdAt from_text{parsed.tree, parsed.cost, parsed.damage};
  const auto built = casestudies::make_factory();
  EXPECT_TRUE(atcd::testing::fronts_equal(cdpf(from_text), cdpf(built)));
}

TEST(Parser, RootStatementOptionalWhenUnique) {
  const auto m = parse_model("bas a\nbas b\nor top = a, b\n");
  EXPECT_EQ(m.tree.name(m.tree.root()), "top");
}

TEST(Parser, ProbAttribute) {
  const auto m = parse_model("bas a prob=0.25 cost=2\nor top = a\n");
  EXPECT_DOUBLE_EQ(m.prob[0], 0.25);
}

TEST(Parser, ReportsLineNumbers) {
  try {
    parse_model("bas a\nbas a\n");
    FAIL() << "expected ModelError/ParseError";
  } catch (const Error& e) {
    // Duplicate name is a structural error raised while parsing line 2.
    SUCCEED();
  }
  try {
    parse_model("bas a\nxyzzy b\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, RejectsForwardReferences) {
  EXPECT_THROW(parse_model("or top = a\nbas a\n"), ParseError);
}

TEST(Parser, RejectsBadProbability) {
  EXPECT_THROW(parse_model("bas a prob=1.5\n"), ParseError);
}

TEST(Parser, RejectsUnknownAttribute) {
  EXPECT_THROW(parse_model("bas a foo=1\n"), ParseError);
}

TEST(Parser, RejectsUndefinedRoot) {
  EXPECT_THROW(parse_model("bas a\nroot zz\n"), ParseError);
}

TEST(Parser, RoundTripSerialisation) {
  Rng rng(7);
  for (int it = 0; it < 10; ++it) {
    const auto m = atcd::testing::random_cdpat(rng, 8, it % 2 == 0);
    const auto text = serialize_model(m.tree, m.cost, m.damage, &m.prob);
    const auto back = parse_model(text);
    ASSERT_EQ(back.tree.node_count(), m.tree.node_count());
    ASSERT_EQ(back.tree.bas_count(), m.tree.bas_count());
    ASSERT_EQ(back.cost, m.cost);
    ASSERT_EQ(back.prob, m.prob);
    ASSERT_EQ(back.damage, m.damage);
    ASSERT_EQ(back.tree.name(back.tree.root()), m.tree.name(m.tree.root()));
  }
}

/// A flat OR over \p n BASs, as text.
std::string flat_or(int n) {
  std::ostringstream o;
  for (int i = 0; i < n; ++i) o << "bas b" << i << " cost=1\n";
  o << "or top = b0";
  for (int i = 1; i < n; ++i) o << ", b" << i;
  o << "\n";
  return o.str();
}

/// Best-of-5 wall time of parse_model(text), in seconds.
double parse_seconds(const std::string& text) {
  double best = 1e9;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto m = parse_model(text);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(m.tree.node_count(), static_cast<std::size_t>(
                                       std::count(text.begin(), text.end(),
                                                  '\n')));
    best = std::min(best, dt.count());
  }
  return best;
}

TEST(Parser, ParseTimeGrowsLinearlyInNodeCount) {
  // 8x the BASs must cost well under the 64x a per-node name scan costs.
  // Linear parsing measures 8-18x here: the larger model outgrows the
  // CPU caches, and the small one takes only ~2 ms, so the bound leaves
  // room for that and for timer noise.
  const double small = parse_seconds(flat_or(5000));
  const double large = parse_seconds(flat_or(40000));
  EXPECT_LT(large, 32 * small) << small << " s -> " << large << " s";
}

TEST(Dot, ContainsNodesEdgesAndDecorations) {
  const auto m = casestudies::make_factory();
  const auto dot = to_dot(m.tree, m.cost, m.damage);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("ps"), std::string::npos);
  EXPECT_NE(dot.find("d=200"), std::string::npos);
  EXPECT_NE(dot.find("c=3"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Dot, EscapesQuotes) {
  AttackTree t;
  t.add_bas("a\"b");
  t.finalize();
  const auto dot = to_dot(t);
  EXPECT_NE(dot.find("a\\\"b"), std::string::npos);
}

}  // namespace
}  // namespace atcd
