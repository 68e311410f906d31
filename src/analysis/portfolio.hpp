#pragma once
/// \file portfolio.hpp
/// Defense-portfolio optimization: which set of countermeasures should
/// the defender buy under a budget?
///
/// Each countermeasure carries a deployment cost and hardens a set of
/// BASs (defense::Countermeasure, hardened by defense.hpp's one rule: a
/// hardened BAS costs base * cost_factor, or cost_factor when free, and
/// a BAS named by several selected countermeasures is hardened once).
/// portfolio() searches the subsets of the catalogue whose total
/// deployment cost fits the defender budget, scores each by the
/// *residual damage* — the attacker's optimal DgC (deterministic) /
/// EDgC (probabilistic) value on the hardened model under the attacker
/// budget Options::bound — and returns both the best affordable
/// portfolio and the full investment-vs-residual frontier (the defender
/// analogue of CDPF: minimal deployment cost per attainable residual
/// level).  It is the library's one defense search.
///
/// Enumeration is over defense toggles with budget-based
/// branch-and-bound (the DFS cuts every subset extending an
/// unaffordable selection).  Each surviving subset is one job of the
/// shared worker loop: the worker hardens its own copy of the model,
/// solves it (the planner routes it to bottom-up / knapsack / BILP /
/// BDD as the hardened model's class dictates; no cache is bound), and
/// restores the copy.  Only (investment, residual, subset mask) is kept
/// per subset, and countermeasure names are rendered for frontier
/// points only.  Results are deterministic across thread counts; ties
/// resolve toward cheaper and lexicographically earlier portfolios
/// (tests/test_analysis.cpp cross-validates against plain brute-force
/// enumeration).

#include <string>
#include <vector>

#include "analysis/analysis.hpp"

namespace atcd::analysis {

/// One scored portfolio.
struct PortfolioPoint {
  double invest = 0.0;    ///< total deployment cost of the selection
  double residual = 0.0;  ///< attacker's optimal damage on the hardened model
  std::vector<std::string> selected;  ///< countermeasure names, catalogue order
};

struct PortfolioResult {
  engine::Problem problem = engine::Problem::Dgc;  ///< residual problem
  double defense_budget = 0.0;   ///< echoed budget
  double attacker_budget = 0.0;  ///< echoed Options::bound
  /// Pareto frontier over affordable portfolios: ascending investment,
  /// strictly descending residual (the empty portfolio anchors it).
  std::vector<PortfolioPoint> frontier;
  /// The minimal-residual affordable portfolio (ties: cheaper, then
  /// lexicographically earlier selection) — the last frontier point.
  PortfolioPoint best;
  std::uint64_t evaluated = 0;  ///< hardened scenarios solved
  std::uint64_t pruned = 0;     ///< subsets cut by the budget bound
};

/// Optimizes the defense portfolio.  Throws CapacityError when the
/// catalogue exceeds Options::max_portfolio_defenses, ModelError on
/// unknown BAS names, and Error when a residual solve fails.
/// Options::bound is the attacker budget; problem is ignored — DgC for
/// CdAt, EDgC for CdpAt.  Passing infinity means "unbounded attacker"
/// and clamps to twice the model's total base leaf cost (+1), which
/// affords every un-hardened attack while keeping hardened leaves
/// unattractive — a truly infinite budget would ignore the finite
/// hardening altogether.
PortfolioResult portfolio(const CdAt& m,
                          const std::vector<defense::Countermeasure>& catalogue,
                          double defense_budget, const Options& opt);
PortfolioResult portfolio(const CdpAt& m,
                          const std::vector<defense::Countermeasure>& catalogue,
                          double defense_budget, const Options& opt);

/// Stable tab-separated rendering: '#' header (budgets, counts), column
/// header, one line per frontier point (invest, residual, portfolio).
std::string to_table(const PortfolioResult& result);

}  // namespace atcd::analysis
