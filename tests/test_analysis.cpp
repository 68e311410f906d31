/// Tests for the scenario-analysis subsystem (src/analysis/) and the
/// pareto front metrics it builds on: sweep cells must equal
/// from-scratch solves of the correspondingly edited model (including
/// the DAG fallback and defense axes), portfolio optimization must
/// cross-validate against plain brute-force subset enumeration, and all
/// rendered tables must be byte-identical across worker thread counts.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "analysis/portfolio.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/sweep.hpp"
#include "at/parser.hpp"
#include "helpers.hpp"
#include "pareto/metrics.hpp"
#include "util/rng.hpp"

namespace atcd {
namespace {

using analysis::Attribute;
using analysis::Axis;
using engine::Problem;
using testing::fronts_equal;

constexpr const char* kDetModel =
    "bas pick cost=1 damage=2\n"
    "bas drill cost=4 damage=1\n"
    "bas phish cost=2 damage=0\n"
    "and break = pick, drill damage=3\n"
    "or open = break, phish damage=10\n";

constexpr const char* kProbModel =
    "bas pick cost=1 damage=2 prob=0.5\n"
    "bas drill cost=4 damage=1 prob=0.9\n"
    "bas phish cost=2 damage=0 prob=0.6\n"
    "and break = pick, drill damage=3\n"
    "or open = break, phish damage=10\n";

CdAt det_model() {
  ParsedModel p = parse_model(kDetModel);
  return CdAt{std::move(p.tree), std::move(p.cost), std::move(p.damage)};
}

CdpAt prob_model() {
  ParsedModel p = parse_model(kProbModel);
  return CdpAt{std::move(p.tree), std::move(p.cost), std::move(p.damage),
               std::move(p.prob)};
}

Front2d front_of(std::vector<std::pair<double, double>> pts,
                 std::size_t bas = 2) {
  std::vector<FrontPoint> cands;
  for (const auto& [c, d] : pts)
    cands.push_back({CdPoint{c, d}, Attack(bas)});
  return Front2d::of_candidates(std::move(cands));
}

// ---------------------------------------------------------------------------
// Pareto metrics.
// ---------------------------------------------------------------------------

TEST(Metrics, HypervolumeOfStaircase) {
  const Front2d f = front_of({{0, 0}, {1, 4}, {3, 6}});
  // (4-1)*4 for the middle step plus (4-3)*(6-4) for the top one.
  EXPECT_DOUBLE_EQ(hypervolume(f, 4.0), 14.0);
  EXPECT_DOUBLE_EQ(hypervolume(f, 1.0), 0.0);   // only (1,4) is in range
  EXPECT_DOUBLE_EQ(hypervolume(Front2d{}, 4.0), 0.0);
}

TEST(Metrics, FrontGapDistanceAndEpsilonCovers) {
  const Front2d a = front_of({{0, 0}, {1, 4}});
  const Front2d b = front_of({{0, 0}, {1, 5}});
  EXPECT_DOUBLE_EQ(front_gap(a, b), 1.0);  // a misses (1,5) by 1 damage
  EXPECT_DOUBLE_EQ(front_gap(b, a), 0.0);  // b covers a outright
  EXPECT_DOUBLE_EQ(front_distance(a, b), 1.0);
  EXPECT_DOUBLE_EQ(front_distance(a, a), 0.0);

  std::string why;
  EXPECT_TRUE(epsilon_covers(b, a, 1e-9));
  EXPECT_FALSE(epsilon_covers(a, b, 0.5, &why));
  EXPECT_NE(why.find("(1, 5)"), std::string::npos) << why;
  EXPECT_TRUE(epsilon_equal(a, b, 1.0));
  EXPECT_FALSE(epsilon_equal(a, b, 0.5));
}

// ---------------------------------------------------------------------------
// Axis / countermeasure parsing.
// ---------------------------------------------------------------------------

TEST(Analysis, ParsesAxisSpecs) {
  std::string err;
  const auto axis = analysis::parse_axis("cost:ca:0:5:6", &err);
  ASSERT_TRUE(axis) << err;
  EXPECT_EQ(axis->attribute, Attribute::Cost);
  EXPECT_EQ(axis->node, "ca");
  ASSERT_EQ(axis->values.size(), 6u);
  EXPECT_DOUBLE_EQ(axis->values.front(), 0.0);
  EXPECT_DOUBLE_EQ(axis->values[1], 1.0);
  EXPECT_DOUBLE_EQ(axis->values.back(), 5.0);

  const auto toggle = analysis::parse_axis("defense:fd", &err);
  ASSERT_TRUE(toggle) << err;
  EXPECT_EQ(toggle->attribute, Attribute::Defense);
  EXPECT_EQ(toggle->values, (std::vector<double>{0.0, 1.0}));

  EXPECT_FALSE(analysis::parse_axis("size:ca:0:5:6", &err));
  EXPECT_FALSE(analysis::parse_axis("cost:ca:0:5:0", &err));
  EXPECT_FALSE(analysis::parse_axis("cost:ca:x:5:6", &err));
  EXPECT_FALSE(analysis::parse_axis("cost:ca", &err));
  EXPECT_FALSE(analysis::parse_axis("defense:a:b", &err));
}

/// The printf/strtod rendering format_num must reproduce byte for byte.
std::string reference_format_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  if (std::strtod(buf, nullptr) != v)
    std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(Analysis, FormatNumMatchesThePrintfReference) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double edge[] = {0.0,    -0.0,    1.0,     -1.0,    0.1,    0.2,
                         0.3,    1.0 / 3, 2.0 / 3, 1e15,    1e16,   1e17,
                         1e21,   1e22,    1e-4,    1e-5,    5e-324, kDenorm,
                         kMin,   kMax,    -kMax,   1e308,   123456789012345.0,
                         1234567890123456.0,       12345678901234567.0,
                         9007199254740993.0,       0.1 + 0.2,
                         std::nextafter(1.0, 2.0), std::nextafter(kMin, 0.0),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (const double v : edge)
    EXPECT_EQ(analysis::format_num(v), reference_format_num(v)) << v;

  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    // Random bit patterns cover every exponent; short decimals and small
    // integers are what models actually carry.
    double v = std::bit_cast<double>(rng.next());
    if (std::isnan(v)) continue;
    if (i % 3 == 1) v = std::round(rng.uniform(-1e6, 1e6) * 100.0) / 100.0;
    if (i % 3 == 2) v = static_cast<double>(rng.below(1u << 20));
    ASSERT_EQ(analysis::format_num(v), reference_format_num(v)) << v;
  }

  std::string out = "x=";
  analysis::append_num(&out, 2.5);
  EXPECT_EQ(out, "x=2.5");
}

TEST(Analysis, ParsesCountermeasureSpecs) {
  std::string err;
  const auto cm = analysis::parse_countermeasure("patch:2.5:ca+pb", &err);
  ASSERT_TRUE(cm) << err;
  EXPECT_EQ(cm->name, "patch");
  EXPECT_DOUBLE_EQ(cm->cost, 2.5);
  EXPECT_EQ(cm->hardened_bas, (std::vector<std::string>{"ca", "pb"}));

  EXPECT_FALSE(analysis::parse_countermeasure("patch:2.5", &err));
  EXPECT_FALSE(analysis::parse_countermeasure("patch:-1:ca", &err));
  EXPECT_FALSE(analysis::parse_countermeasure("patch:x:ca", &err));
  EXPECT_FALSE(analysis::parse_countermeasure(":1:ca", &err));
}

// ---------------------------------------------------------------------------
// Sweeps.
// ---------------------------------------------------------------------------

/// Applies one axis value to a plain model copy, mirroring the session
/// edit semantics (defense: the analysis-default hardening {1e6, 0}).
template <class Model>
void apply_axis(Model& m, const Axis& axis, double value) {
  const auto v = m.tree.find(axis.node);
  ASSERT_TRUE(v.has_value());
  switch (axis.attribute) {
    case Attribute::Cost:
      m.cost[m.tree.bas_index(*v)] = value;
      break;
    case Attribute::Damage:
      m.damage[*v] = value;
      break;
    case Attribute::Prob:
      if constexpr (std::is_same_v<Model, CdpAt>)
        m.prob[m.tree.bas_index(*v)] = value;
      break;
    case Attribute::Defense:
      if (value != 0.0) {
        double& c = m.cost[m.tree.bas_index(*v)];
        c = c > 0.0 ? c * 1e6 : 1e6;
        if constexpr (std::is_same_v<Model, CdpAt>)
          m.prob[m.tree.bas_index(*v)] = 0.0;
      }
      break;
  }
}

/// Every cell of the sweep must equal a from-scratch solve of the
/// correspondingly edited model.
template <class Model>
void check_sweep_against_scratch(const Model& base,
                                 const analysis::SweepResult& r) {
  const std::size_t nx = r.axes[0].values.size();
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const analysis::SweepCell& cell = r.cells[i];
    Model edited = base;
    apply_axis(edited, r.axes[0], cell.x);
    if (r.axes.size() == 2) apply_axis(edited, r.axes[1], cell.y);
    SCOPED_TRACE("cell " + std::to_string(i) + " (x=" +
                 std::to_string(cell.x) + ", y=" + std::to_string(cell.y) +
                 ")");
    ASSERT_EQ(cell.x, r.axes[0].values[i % nx]);
    const engine::SolveResult ref = engine::solve_one(
        engine::Instance::of(r.problem, edited,
                             r.problem == Problem::Dgc ? 3.0 : 0.0));
    ASSERT_TRUE(cell.result.ok) << cell.result.error;
    ASSERT_TRUE(ref.ok) << ref.error;
    if (engine::is_front(r.problem)) {
      EXPECT_TRUE(fronts_equal(cell.result.front, ref.front));
    } else {
      ASSERT_EQ(cell.result.attack.feasible, ref.attack.feasible);
      if (ref.attack.feasible) {
        EXPECT_NEAR(cell.result.attack.cost, ref.attack.cost, 1e-9);
        EXPECT_NEAR(cell.result.attack.damage, ref.attack.damage, 1e-9);
      }
    }
  }
}

TEST(Sweep, OneDimensionalDgcMatchesScratch) {
  const CdAt m = det_model();
  analysis::Options opt;
  opt.problem = Problem::Dgc;
  opt.bound = 3.0;
  const auto r = analysis::sweep(
      m, {Axis::linspace(Attribute::Cost, "pick", 0.0, 5.0, 6)}, opt);
  EXPECT_TRUE(r.incremental);
  ASSERT_EQ(r.cells.size(), 6u);
  check_sweep_against_scratch(m, r);
}

TEST(Sweep, TwoDimensionalWithDefenseAxisMatchesScratch) {
  const CdAt m = det_model();
  analysis::Options opt;
  opt.problem = Problem::Cdpf;
  const auto r = analysis::sweep(
      m,
      {Axis::linspace(Attribute::Cost, "pick", 1.0, 3.0, 3),
       Axis::toggle("drill")},
      opt);
  ASSERT_EQ(r.cells.size(), 6u);
  // Row-major: the defense axis (outer) toggles once, halfway through.
  EXPECT_EQ(r.cells[0].y, 0.0);
  EXPECT_EQ(r.cells[3].y, 1.0);
  check_sweep_against_scratch(m, r);
}

TEST(Sweep, ProbabilisticAxesMatchScratch) {
  const CdpAt m = prob_model();
  analysis::Options opt;
  opt.problem = Problem::Cedpf;
  const auto r = analysis::sweep(
      m, {Axis::linspace(Attribute::Prob, "pick", 0.0, 1.0, 5)}, opt);
  ASSERT_EQ(r.cells.size(), 5u);
  check_sweep_against_scratch(m, r);
}

TEST(Sweep, DagModelsFallBackAndMatchScratch) {
  // random_dag occasionally comes out treelike; scan for a seed whose
  // sharing actually triggered.
  CdAt dag;
  for (std::uint64_t seed = 42; dag.tree.node_count() == 0 ||
                                dag.tree.is_treelike();
       ++seed) {
    Rng rng(seed);
    dag = testing::random_cdat(rng, 6, /*treelike=*/false);
  }
  ASSERT_FALSE(dag.tree.is_treelike());
  const std::string leaf = dag.tree.name(dag.tree.bas_id(0));
  analysis::Options opt;
  opt.problem = Problem::Cdpf;
  const auto r = analysis::sweep(
      dag, {Axis::linspace(Attribute::Cost, leaf, 1.0, 4.0, 4)}, opt);
  EXPECT_FALSE(r.incremental);
  ASSERT_EQ(r.cells.size(), 4u);
  check_sweep_against_scratch(dag, r);
}

TEST(Sweep, RejectsBadAxes) {
  const CdAt m = det_model();
  analysis::Options opt;
  opt.problem = Problem::Cdpf;
  EXPECT_THROW(
      analysis::sweep(m, {Axis::linspace(Attribute::Cost, "nope", 0, 1, 2)},
                      opt),
      ModelError);
  EXPECT_THROW(
      analysis::sweep(m, {Axis::linspace(Attribute::Cost, "break", 0, 1, 2)},
                      opt),
      ModelError);  // not a BAS
  EXPECT_THROW(
      analysis::sweep(m, {Axis::linspace(Attribute::Prob, "pick", 0, 1, 2)},
                      opt),
      ModelError);  // prob axis on a deterministic problem
  EXPECT_THROW(analysis::sweep(m,
                               {Axis::linspace(Attribute::Cost, "pick", 0,
                                               1, 2),
                                Axis::linspace(Attribute::Cost, "pick", 2,
                                               3, 2)},
                               opt),
               ModelError);  // both axes target the same parameter
  EXPECT_THROW(analysis::sweep(m, {}, opt), ModelError);
}

// ---------------------------------------------------------------------------
// Sensitivity.
// ---------------------------------------------------------------------------

TEST(Sensitivity, RanksEveryLeafParameterDescending) {
  const CdAt m = det_model();
  analysis::Options opt;
  const auto report = analysis::sensitivity(m, opt);
  EXPECT_EQ(report.problem, Problem::Cdpf);
  // cost + damage per BAS on deterministic models.
  ASSERT_EQ(report.ranking.size(), 2 * m.tree.bas_count());
  for (std::size_t i = 1; i < report.ranking.size(); ++i)
    EXPECT_GE(report.ranking[i - 1].distance, report.ranking[i].distance);
  for (const auto& e : report.ranking) {
    EXPECT_TRUE(e.error.empty()) << e.error;
    EXPECT_GE(e.distance, 0.0);
  }
  // The base front is the plain CDPF front.
  const auto ref =
      engine::solve_one(engine::Instance::of(Problem::Cdpf, m));
  ASSERT_TRUE(ref.ok);
  EXPECT_TRUE(fronts_equal(report.base, ref.front));
}

TEST(Sensitivity, ProbabilisticModelsIncludeProbEntries) {
  const CdpAt m = prob_model();
  analysis::Options opt;
  opt.sensitivity_step = 0.1;
  const auto report = analysis::sensitivity(m, opt);
  EXPECT_EQ(report.problem, Problem::Cedpf);
  ASSERT_EQ(report.ranking.size(), 3 * m.tree.bas_count());
  std::size_t prob_entries = 0;
  for (const auto& e : report.ranking) {
    if (e.attribute != Attribute::Prob) continue;
    ++prob_entries;
    EXPECT_NEAR(e.perturbed, e.base / 1.1, 1e-12);
  }
  EXPECT_EQ(prob_entries, m.tree.bas_count());
}

// ---------------------------------------------------------------------------
// Portfolio.
// ---------------------------------------------------------------------------

/// Brute-force reference: score *every* subset (no pruning, no
/// batching), track the best affordable one and the per-investment
/// minimum residual.
template <class Model>
void brute_force(const Model& m,
                 const std::vector<defense::Countermeasure>& catalogue,
                 double defense_budget, double attacker_budget,
                 const defense::HardeningSemantics& hardening,
                 analysis::PortfolioPoint* best,
                 std::vector<analysis::PortfolioPoint>* all) {
  constexpr bool probabilistic = std::is_same_v<Model, CdpAt>;
  const Problem problem = probabilistic ? Problem::Edgc : Problem::Dgc;
  const std::size_t n = catalogue.size();
  bool have_best = false;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    analysis::PortfolioPoint p;
    std::vector<bool> sel(n, false);
    for (std::size_t i = 0; i < n; ++i)
      if (mask >> i & 1) {
        sel[i] = true;
        p.invest += catalogue[i].cost;
        p.selected.push_back(catalogue[i].name);
      }
    if (p.invest > defense_budget) continue;
    const Model hardened = defense::harden(m, catalogue, sel, hardening);
    const auto r = engine::solve_one(
        engine::Instance::of(problem, hardened, attacker_budget));
    ASSERT_TRUE(r.ok) << r.error;
    p.residual = r.attack.feasible ? r.attack.damage : 0.0;
    if (all) all->push_back(p);
    if (!have_best || p.residual < best->residual - 1e-12 ||
        (std::abs(p.residual - best->residual) <= 1e-12 &&
         p.invest < best->invest))
      *best = p, have_best = true;
  }
  ASSERT_TRUE(have_best);
}

TEST(Portfolio, CrossValidatesAgainstBruteForceOnRandomModels) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(0x9F0ull * 1000 + seed);
    const bool treelike = seed % 2 == 0;
    const CdAt m = testing::random_cdat(rng, 4 + rng.below(4), treelike);
    // 3-4 random countermeasures over random BAS subsets.
    std::vector<defense::Countermeasure> catalogue;
    const std::size_t n_cm = 3 + rng.below(2);
    for (std::size_t k = 0; k < n_cm; ++k) {
      defense::Countermeasure cm;
      cm.name = "d" + std::to_string(k);
      cm.cost = static_cast<double>(rng.range(1, 5));
      const std::size_t bas =
          static_cast<std::size_t>(rng.below(m.tree.bas_count()));
      cm.hardened_bas.push_back(m.tree.name(m.tree.bas_id(
          static_cast<std::uint32_t>(bas))));
      catalogue.push_back(std::move(cm));
    }
    double total_cost = 0.0;
    for (double c : m.cost) total_cost += c;
    const double defense_budget = static_cast<double>(rng.range(0, 10));
    const double attacker_budget = rng.uniform(0.0, total_cost);

    analysis::Options opt;
    opt.bound = attacker_budget;
    // Random DAG instances meet the embedded BILP here; keep the
    // hardened cost coefficients in its comfortable numeric range (the
    // brute-force reference hardens identically, so the
    // cross-validation is unaffected).
    opt.hardening = defense::HardeningSemantics{100.0, 0.0};
    const auto result =
        analysis::portfolio(m, catalogue, defense_budget, opt);

    analysis::PortfolioPoint best;
    std::vector<analysis::PortfolioPoint> all;
    brute_force(m, catalogue, defense_budget, attacker_budget,
                opt.hardening, &best, &all);
    const std::string context = "seed=" + std::to_string(seed);
    EXPECT_NEAR(result.best.residual, best.residual, 1e-9) << context;
    EXPECT_NEAR(result.best.invest, best.invest, 1e-9) << context;

    // Frontier property: each point's residual is the true minimum over
    // all affordable subsets of its investment level, and the frontier
    // is strictly improving.
    for (const auto& p : result.frontier) {
      double min_residual = std::numeric_limits<double>::infinity();
      for (const auto& q : all)
        if (q.invest <= p.invest + 1e-12)
          min_residual = std::min(min_residual, q.residual);
      EXPECT_NEAR(p.residual, min_residual, 1e-9) << context;
    }
    for (std::size_t i = 1; i < result.frontier.size(); ++i) {
      EXPECT_GT(result.frontier[i].invest, result.frontier[i - 1].invest)
          << context;
      EXPECT_LT(result.frontier[i].residual,
                result.frontier[i - 1].residual)
          << context;
    }
    EXPECT_EQ(result.evaluated + result.pruned,
              std::uint64_t{1} << catalogue.size())
        << context;
  }
}

TEST(Portfolio, ProbabilisticResidualsCrossValidate) {
  Rng rng(7);
  const CdpAt m = testing::random_cdpat(rng, 5, /*treelike=*/true);
  std::vector<defense::Countermeasure> catalogue{
      {"a", 1.0, {m.tree.name(m.tree.bas_id(0))}},
      {"b", 2.0, {m.tree.name(m.tree.bas_id(1)),
                  m.tree.name(m.tree.bas_id(2))}},
  };
  analysis::Options opt;
  opt.bound = 6.0;
  const auto result = analysis::portfolio(m, catalogue, 3.0, opt);
  analysis::PortfolioPoint best;
  brute_force(m, catalogue, 3.0, 6.0, opt.hardening, &best, nullptr);
  EXPECT_NEAR(result.best.residual, best.residual, 1e-9);
  EXPECT_NEAR(result.best.invest, best.invest, 1e-9);
}

TEST(Portfolio, GuardsTheExhaustiveCap) {
  const CdAt m = det_model();
  std::vector<defense::Countermeasure> catalogue(
      21, defense::Countermeasure{"x", 1.0, {"pick"}});
  analysis::Options opt;
  EXPECT_THROW(analysis::portfolio(m, catalogue, 1.0, opt), CapacityError);
}

/// `a` is free; the attacker's budget of 4 affords it but not `b`.
constexpr const char* kFreeBasModel =
    "bas a cost=0 damage=10\n"
    "bas b cost=5 damage=3\n"
    "or r = a, b\n";

CdAt parse_det(const char* text) {
  ParsedModel p = parse_model(text);
  return CdAt{std::move(p.tree), std::move(p.cost), std::move(p.damage)};
}

TEST(Portfolio, HardensAFreeBasLikeASessionDoes) {
  const CdAt m = parse_det(kFreeBasModel);
  analysis::Options opt;
  opt.problem = Problem::Dgc;
  opt.bound = 4.0;
  const auto r =
      analysis::portfolio(m, {{"harden_a", 1.0, {"a"}}}, 10.0, opt);
  // A hardened free BAS costs the bare factor, out of the attacker's
  // reach: buying the defense removes all damage.
  ASSERT_EQ(r.frontier.size(), 2u);
  EXPECT_EQ(r.frontier[0].residual, 10.0);
  EXPECT_EQ(r.frontier[1].residual, 0.0);
  EXPECT_EQ(r.frontier[1].selected, std::vector<std::string>{"harden_a"});
  // The sweep's defense axis (a session toggle) reads the same residuals.
  const auto sw = analysis::sweep(m, {Axis::toggle("a")}, opt);
  ASSERT_EQ(sw.cells.size(), 2u);
  EXPECT_EQ(sw.cells[0].result.attack.damage, 10.0);
  EXPECT_EQ(sw.cells[1].result.attack.damage, 0.0);
}

TEST(Portfolio, ABasNamedByTwoSelectedDefensesIsHardenedOnce) {
  const CdAt m = parse_det(
      "bas a cost=1 damage=10\n"
      "bas b cost=5 damage=3\n"
      "or r = a, b\n");
  analysis::Options opt;
  opt.bound = 2000000.0;  // affords a hardened once (1e6), not twice
  const auto r = analysis::portfolio(
      m, {{"d1", 1.0, {"a"}}, {"d2", 1.0, {"a"}}}, 10.0, opt);
  // {d1}, {d2} and {d1, d2} are one scenario, whose attacker still
  // affords everything: no portfolio lowers the residual.
  EXPECT_EQ(r.evaluated, 4u);
  ASSERT_EQ(r.frontier.size(), 1u);
  EXPECT_EQ(r.frontier[0].residual, 13.0);
  EXPECT_TRUE(r.frontier[0].selected.empty());
}

// ---------------------------------------------------------------------------
// Determinism: same inputs yield byte-identical tables on any thread
// count.
// ---------------------------------------------------------------------------

TEST(Analysis, TablesAreByteIdenticalAcrossThreadCounts) {
  const CdAt det = det_model();
  const CdpAt prob = prob_model();
  std::vector<defense::Countermeasure> catalogue{
      {"patch", 2.0, {"pick"}}, {"lock", 1.0, {"drill"}}};

  std::vector<std::string> sweep_tables, sens_tables, pf_tables;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    analysis::Options opt;
    opt.batch.threads = threads;

    opt.problem = Problem::Dgc;
    opt.bound = 4.0;
    sweep_tables.push_back(analysis::to_table(analysis::sweep(
        det,
        {analysis::Axis::linspace(Attribute::Cost, "pick", 0.0, 5.0, 6),
         analysis::Axis::toggle("drill")},
        opt)));
    sens_tables.push_back(
        analysis::to_table(analysis::sensitivity(prob, opt)));
    opt.bound = 5.0;
    pf_tables.push_back(
        analysis::to_table(analysis::portfolio(det, catalogue, 3.0, opt)));
  }
  for (std::size_t i = 1; i < sweep_tables.size(); ++i) {
    EXPECT_EQ(sweep_tables[i], sweep_tables[0]);
    EXPECT_EQ(sens_tables[i], sens_tables[0]);
    EXPECT_EQ(pf_tables[i], pf_tables[0]);
  }
}

}  // namespace
}  // namespace atcd
