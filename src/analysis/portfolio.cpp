#include "analysis/portfolio.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

namespace atcd::analysis {
namespace {

/// The attacker budget the residual solves actually run with.  A
/// literally infinite budget would let the attacker ignore hardening
/// altogether (hardened leaves stay attackable at cost_factor-scaled
/// cost), so "unbounded" means twice the model's total base leaf cost
/// (+1 for all-zero-cost models): every un-hardened attack is
/// affordable with slack, while a hardened leaf stays affordable only
/// when its base cost is below ~2/cost_factor of the model total —
/// negligible at the default factor.  Scale-aware, unlike defense.cpp's
/// fixed 1e12 (which pairs with *infinite* hardening's 1e15 sentinel).
double effective_attacker_budget(double bound,
                                 const std::vector<double>& base_cost) {
  if (!std::isinf(bound)) return bound;
  double total = 0.0;
  for (double c : base_cost) total += c;
  return 2.0 * total + 1.0;
}

bool lex_less(const std::vector<std::string>& a,
              const std::vector<std::string>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

template <class Model>
PortfolioResult portfolio_impl(
    const Model& m, const std::vector<defense::Countermeasure>& catalogue,
    double defense_budget, const Options& opt) {
  constexpr bool probabilistic = std::is_same_v<Model, CdpAt>;
  if (catalogue.size() > opt.max_portfolio_defenses)
    throw CapacityError(
        "portfolio: catalogue of " + std::to_string(catalogue.size()) +
        " defenses exceeds the exhaustive cap of " +
        std::to_string(opt.max_portfolio_defenses));

  PortfolioResult out;
  out.problem = probabilistic ? engine::Problem::Edgc : engine::Problem::Dgc;
  out.defense_budget = defense_budget;
  out.attacker_budget = effective_attacker_budget(opt.bound, m.cost);

  // Budget-pruned DFS over defense toggles (exclude branch first, so
  // subsets come out in bitmask order — a fixed, thread-independent
  // scenario order).  Every affordable subset becomes one hardened
  // scenario; unaffordable inclusions are cut together with all their
  // supersets.
  const std::size_t n = catalogue.size();
  std::vector<PortfolioPoint> points;
  std::vector<std::vector<bool>> selections;
  std::vector<bool> selection(n, false);
  const auto dfs = [&](const auto& self, std::size_t k,
                       double invest) -> void {
    if (k == n) {
      PortfolioPoint p;
      p.invest = invest;
      for (std::size_t i = 0; i < n; ++i)
        if (selection[i]) p.selected.push_back(catalogue[i].name);
      points.push_back(std::move(p));
      selections.push_back(selection);
      return;
    }
    self(self, k + 1, invest);
    if (invest + catalogue[k].cost <= defense_budget) {
      selection[k] = true;
      self(self, k + 1, invest + catalogue[k].cost);
      selection[k] = false;
    }
  };
  dfs(dfs, 0, 0.0);
  out.evaluated = points.size();
  out.pruned = (std::uint64_t{1} << n) - out.evaluated;

  // Solve the hardened scenarios in fixed-size chunks: materialize a
  // chunk of model copies (instances borrow them, so the vector must
  // never reallocate under them), fan it through solve_all, score, and
  // discard — 2^20 affordable subsets must not mean 2^20 resident
  // whole-model copies.  Chunking cannot change results: every
  // instance is solved independently.
  constexpr std::size_t kChunk = 1024;
  std::vector<Model> models;
  std::vector<engine::Instance> instances;
  for (std::size_t base = 0; base < selections.size(); base += kChunk) {
    const std::size_t count = std::min(kChunk, selections.size() - base);
    models.clear();
    instances.clear();
    models.reserve(count);
    instances.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      models.push_back(
          defense::harden(m, catalogue, selections[base + i], opt.hardening));
      instances.push_back(engine::Instance::of(
          out.problem, models.back(), out.attacker_budget, opt.engine_name));
    }
    const std::vector<engine::SolveResult> results =
        engine::solve_all(instances, opt.batch);
    for (std::size_t i = 0; i < count; ++i) {
      if (!results[i].ok)
        throw Error("portfolio: residual solve failed: " + results[i].error);
      points[base + i].residual =
          results[i].attack.feasible ? results[i].attack.damage : 0.0;
    }
  }

  // Frontier: ascending investment, strictly descending residual; ties
  // resolve toward the cheaper, lexicographically earlier portfolio.
  std::sort(points.begin(), points.end(),
            [](const PortfolioPoint& a, const PortfolioPoint& b) {
              if (a.invest != b.invest) return a.invest < b.invest;
              if (a.residual != b.residual) return a.residual < b.residual;
              return lex_less(a.selected, b.selected);
            });
  double best_residual = std::numeric_limits<double>::infinity();
  for (PortfolioPoint& p : points)
    if (p.residual < best_residual) {
      best_residual = p.residual;
      out.frontier.push_back(std::move(p));
    }
  out.best = out.frontier.back();  // never empty: the empty portfolio
  return out;
}

}  // namespace

PortfolioResult portfolio(const CdAt& m,
                          const std::vector<defense::Countermeasure>& catalogue,
                          double defense_budget, const Options& opt) {
  return portfolio_impl(m, catalogue, defense_budget, opt);
}

PortfolioResult portfolio(const CdpAt& m,
                          const std::vector<defense::Countermeasure>& catalogue,
                          double defense_budget, const Options& opt) {
  return portfolio_impl(m, catalogue, defense_budget, opt);
}

std::string to_table(const PortfolioResult& r) {
  std::ostringstream out;
  out << "# portfolio problem=" << engine::to_string(r.problem)
      << " defense-budget=" << format_num(r.defense_budget)
      << " attacker-budget=" << format_num(r.attacker_budget)
      << " evaluated=" << r.evaluated << " pruned=" << r.pruned << '\n'
      << "invest\tresidual\tportfolio\n";
  for (const PortfolioPoint& p : r.frontier) {
    out << format_num(p.invest) << '\t' << format_num(p.residual) << "\t{";
    for (std::size_t i = 0; i < p.selected.size(); ++i)
      out << (i ? ", " : "") << p.selected[i];
    out << "}\n";
  }
  return out.str();
}

}  // namespace atcd::analysis
