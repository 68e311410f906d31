#include "analysis/portfolio.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "util/parallel.hpp"

namespace atcd::analysis {
namespace {

/// The attacker budget the residual solves actually run with.  A
/// literally infinite budget would let the attacker ignore hardening
/// altogether (hardened leaves stay attackable at cost_factor-scaled
/// cost), so "unbounded" means twice the model's total base leaf cost
/// (+1 for all-zero-cost models): every un-hardened attack is
/// affordable with slack, while a hardened leaf stays affordable only
/// when its base cost is below ~2/cost_factor of the model total —
/// negligible at the default factor.
double effective_attacker_budget(double bound,
                                 const std::vector<double>& base_cost) {
  if (!std::isinf(bound)) return bound;
  double total = 0.0;
  for (double c : base_cost) total += c;
  return 2.0 * total + 1.0;
}

/// Whether subset \p a's countermeasure names, in catalogue order,
/// precede subset \p b's lexicographically.
bool lex_less(std::uint64_t a, std::uint64_t b,
              const std::vector<defense::Countermeasure>& catalogue) {
  const std::size_t n = catalogue.size();
  std::size_t i = 0, j = 0;
  for (;; ++i, ++j) {
    while (i < n && !(a >> i & 1)) ++i;
    while (j < n && !(b >> j & 1)) ++j;
    if (i == n || j == n) return i == n && j != n;
    if (catalogue[i].name != catalogue[j].name)
      return catalogue[i].name < catalogue[j].name;
  }
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
  const auto hardens = defense::resolve(m.tree, catalogue);

  PortfolioResult out;
  out.problem = probabilistic ? engine::Problem::Edgc : engine::Problem::Dgc;
  out.defense_budget = defense_budget;
  out.attacker_budget = effective_attacker_budget(opt.bound, m.cost);

  // Budget-pruned DFS over defense toggles (exclude branch first, a
  // fixed, thread-independent scenario order).  Every affordable subset
  // becomes one scenario, kept as its bit mask; unaffordable inclusions
  // are cut together with all their supersets.
  struct Scored {
    double invest = 0.0;
    double residual = 0.0;
    std::uint64_t mask = 0;
  };
  const std::size_t n = catalogue.size();
  std::vector<Scored> subsets;
  const auto dfs = [&](const auto& self, std::size_t k, double invest,
                       std::uint64_t mask) -> void {
    if (k == n) {
      subsets.push_back({invest, 0.0, mask});
      return;
    }
    self(self, k + 1, invest, mask);
    if (invest + catalogue[k].cost <= defense_budget)
      self(self, k + 1, invest + catalogue[k].cost,
           mask | std::uint64_t{1} << k);
  };
  dfs(dfs, 0, 0.0, 0);
  out.evaluated = subsets.size();
  out.pruned = (std::uint64_t{1} << n) - out.evaluated;

  // Each worker hardens its own copy of the model for one subset,
  // solves it, and restores the base values: hardening reads the base
  // model, so a BAS named by two selected countermeasures is hardened
  // once, and no scenario outlives its solve.
  const auto harden = [&](Model& copy, std::uint64_t mask, bool on) {
    for (std::size_t k = 0; k < n; ++k) {
      if (!(mask >> k & 1)) continue;
      for (const std::uint32_t i : hardens[k]) {
        copy.cost[i] = defense::hardened_cost(m.cost[i], on, opt.hardening);
        if constexpr (probabilistic)
          copy.prob[i] = defense::hardened_prob(m.prob[i], on, opt.hardening);
      }
    }
  };
  std::vector<std::optional<Model>> copies(
      util::worker_count(opt.batch.threads, subsets.size()));
  util::for_each_index(
      subsets.size(), opt.batch.threads,
      [&](std::size_t worker, std::size_t i) {
        std::optional<Model>& copy = copies[worker];
        if (!copy) copy.emplace(m);
        harden(*copy, subsets[i].mask, true);
        const engine::SolveResult r = engine::solve_one(
            engine::Instance::of(out.problem, *copy, out.attacker_budget,
                                 opt.engine_name),
            opt.batch);
        harden(*copy, subsets[i].mask, false);
        if (!r.ok) throw Error("portfolio: residual solve failed: " + r.error);
        subsets[i].residual = r.attack.feasible ? r.attack.damage : 0.0;
      });

  // Frontier: ascending investment, strictly descending residual; among
  // equal (investment, residual) the lexicographically earliest
  // selection enters.  Names are rendered for frontier points only.
  std::sort(subsets.begin(), subsets.end(),
            [](const Scored& a, const Scored& b) {
              if (a.invest != b.invest) return a.invest < b.invest;
              return a.residual < b.residual;
            });
  double best_residual = std::numeric_limits<double>::infinity();
  std::vector<Scored> frontier;
  for (const Scored& s : subsets) {
    if (s.residual < best_residual) {
      best_residual = s.residual;
      frontier.push_back(s);
    } else if (!frontier.empty() && s.invest == frontier.back().invest &&
               s.residual == frontier.back().residual &&
               lex_less(s.mask, frontier.back().mask, catalogue)) {
      frontier.back().mask = s.mask;
    }
  }
  for (const Scored& s : frontier) {
    PortfolioPoint p{s.invest, s.residual, {}};
    for (std::size_t k = 0; k < n; ++k)
      if (s.mask >> k & 1) p.selected.push_back(catalogue[k].name);
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
