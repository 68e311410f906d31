/// End-to-end integration tests across module boundaries: literature
/// building blocks -> random decorations -> text serialisation -> parse
/// -> engines.  Each test exercises a pipeline a downstream user would
/// actually run.  The last one sends a deep model through the API
/// dispatcher and bounds its peak memory; it lives here, outside the
/// sanitizer test sets, because sanitizers inflate RSS.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <sstream>
#include <variant>

#include "analysis/analysis.hpp"
#include "api/dispatcher.hpp"
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

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// A tree chain of \p gates alternating OR/AND gates, each over the
/// previous gate and a fresh BAS: depth = gates, ~60 bytes per gate.
std::string tree_chain(int gates) {
  std::ostringstream o;
  o << "bas b0 cost=1 damage=1\n";
  std::string prev = "b0";
  for (int i = 1; i <= gates; ++i) {
    o << "bas b" << i << " cost=" << (i % 7 + 1) << " damage=" << (i % 5 + 1)
      << "\n"
      << (i % 2 ? "or" : "and") << " g" << i << " = " << prev << ", b" << i
      << " damage=" << (i % 3 + 1) << "\n";
    prev = "g" + std::to_string(i);
  }
  return o.str();
}

TEST(Integration, DeepTreeChainCostsWhatItsBytesCost) {
  // A DgC with budget 1 on a 2,500-gate chain (a ~149 KB request).  Per-
  // node fronts are tiny, so the solve, the session and the analyses
  // must stay within a few MB; memoizing every subtree's front with a
  // per-subtree leaf map or signature grows with n x depth and takes
  // hundreds of MB here.
  api::SolveSpec spec;
  spec.problem = engine::Problem::Dgc;
  spec.bound = 1.0;
  spec.has_bound = true;
  spec.model = tree_chain(2500);
  const long before = peak_rss_kb();

  api::Dispatcher d;
  api::Request solve;
  solve.op = api::SolveRequest{spec};
  const api::Response solved = d.dispatch(solve);
  ASSERT_EQ(solved.code, api::ErrorCode::Ok) << solved.error;
  const auto& attack = std::get<api::SolvePayload>(solved.payload);

  api::Request open;
  open.op = api::SessionOpenRequest{spec};
  const api::Response opened = d.dispatch(open);
  ASSERT_EQ(opened.code, api::ErrorCode::Ok) << opened.error;
  api::Request resolve;
  resolve.op = api::SessionResolveRequest{
      std::get<api::SessionOpenedPayload>(opened.payload).session};
  const api::Response resolved = d.dispatch(resolve);
  ASSERT_EQ(resolved.code, api::ErrorCode::Ok) << resolved.error;
  const auto& again = std::get<api::SolvePayload>(resolved.payload);

  // b1 costs 2 in the chain, so the sweep's middle point is the model
  // as solved above.
  api::Request sweep;
  sweep.op = api::AnalyzeSweepRequest{
      spec.problem, {"cost:b1:1:3:3"}, spec.bound, true, "", spec.model};
  const api::Response swept = d.dispatch(sweep);
  ASSERT_EQ(swept.code, api::ErrorCode::Ok) << swept.error;
  api::AnalyzePortfolioRequest pf;
  pf.problem = spec.problem;
  pf.defenses = {"lock:1:b1", "patch:2:b2"};
  pf.bound = spec.bound;
  pf.has_bound = true;
  pf.model = spec.model;
  api::Request portfolio;
  portfolio.op = pf;
  const api::Response scored = d.dispatch(portfolio);
  ASSERT_EQ(scored.code, api::ErrorCode::Ok) << scored.error;

  EXPECT_LT(peak_rss_kb() - before, 64 * 1024) << "peak RSS rose (KB)";
  ASSERT_TRUE(attack.feasible);
  EXPECT_EQ(again.feasible, attack.feasible);
  EXPECT_EQ(again.cost, attack.cost);
  EXPECT_EQ(again.damage, attack.damage);
  EXPECT_EQ(again.attack, attack.attack);
  const std::string& rows = std::get<api::AnalysisPayload>(swept.payload).table;
  EXPECT_NE(rows.find("\n2\ttrue\t" + analysis::format_num(attack.cost) +
                      "\t" + analysis::format_num(attack.damage) + "\n"),
            std::string::npos)
      << rows;
  const std::string& scores =
      std::get<api::AnalysisPayload>(scored.payload).table;
  EXPECT_NE(scores.find(" evaluated=4 "), std::string::npos) << scores;
}

/// A flat OR over \p n BASs of cost 1 and damage 1, named with the
/// given prefix.
std::string flat_or(int n, const std::string& prefix = "b") {
  std::ostringstream o;
  for (int i = 0; i < n; ++i)
    o << "bas " << prefix << i << " cost=1 damage=1\n";
  o << "or r =";
  for (int i = 0; i < n; ++i) o << (i ? ", " : " ") << prefix << i;
  o << "\n";
  return o.str();
}

std::size_t count_lines(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

TEST(Integration, SensitivityHoldsOneScenarioPerWorker) {
  // 600 perturbed scenarios of a 300-BAS flat OR (a ~9 KB request).
  // Each scenario's CDPF has 301 points with 300-bit witnesses; holding
  // every scenario's model and front until the ranking, as a fan-out of
  // whole instances does, raises the peak by tens of MB.
  api::AnalyzeSensitivityRequest sr;
  sr.problem = engine::Problem::Cdpf;
  sr.model = flat_or(300);
  const long before = peak_rss_kb();
  api::Dispatcher d;
  api::Request req;
  req.op = sr;
  const api::Response resp = d.dispatch(req);
  EXPECT_LT(peak_rss_kb() - before, 16 * 1024) << "peak RSS rose (KB)";
  ASSERT_EQ(resp.code, api::ErrorCode::Ok) << resp.error;
  const std::string& table =
      std::get<api::AnalysisPayload>(resp.payload).table;
  EXPECT_EQ(count_lines(table), 2u + 600u);
  EXPECT_NE(table.find(" base-points=301\n"), std::string::npos);
}

TEST(Integration, PortfolioKeepsNoNamesPerSubset) {
  // 16 defenses with 55-character names, each hardening one BAS of a
  // 16-BAS flat OR, all affordable: 65,536 scored subsets.  Keeping the
  // selected names of every subset costs ~50 MB; a mask costs 8 bytes.
  api::AnalyzePortfolioRequest pf;
  pf.problem = engine::Problem::Dgc;
  pf.model = flat_or(16);
  for (int i = 0; i < 16; ++i) {
    std::string name = "countermeasure_" + std::to_string(i) + "_";
    name.resize(55, 'x');
    pf.defenses.push_back(name + ":1:b" + std::to_string(i));
  }
  const long before = peak_rss_kb();
  api::Dispatcher d;
  api::Request req;
  req.op = pf;
  const api::Response resp = d.dispatch(req);
  EXPECT_LT(peak_rss_kb() - before, 16 * 1024) << "peak RSS rose (KB)";
  ASSERT_EQ(resp.code, api::ErrorCode::Ok) << resp.error;
  const std::string& table =
      std::get<api::AnalysisPayload>(resp.payload).table;
  // Every defense removes one unit of damage: 17 frontier points.
  EXPECT_EQ(count_lines(table), 2u + 17u) << table;
  EXPECT_NE(table.find(" evaluated=65536 pruned=0\n"), std::string::npos)
      << table;
}

}  // namespace
}  // namespace atcd
