#pragma once
/// \file defense.hpp
/// The one hardening rule: what defending a BAS does to the model.
///
/// The paper's case study reads its Pareto fronts as defense advice
/// ("security improvements should focus on ...; after defenses are put in
/// place, a new cost-damage analysis is needed").  Every defender-side
/// feature applies defenses by this module's rule: a session's
/// `toggle-defense` (service/session.hpp), a sweep's Defense axis
/// (analysis/sweep.hpp, which replays through a session), and the
/// countermeasure portfolios of analysis/portfolio.hpp, the one defense
/// search.
///
/// Hardening is a per-BAS boolean.  A hardened BAS becomes unattractive
/// rather than structurally removed: it costs `base * cost_factor`, or
/// the bare `cost_factor` when its base cost is 0 (a free BAS must not
/// stay free), and its success probability is multiplied by
/// `prob_factor`.  Structural removal would be wrong for AND-gates
/// (removing a child conjunct *helps* the attacker).  A BAS named by
/// several selected countermeasures is hardened once.

#include <cstdint>
#include <string>
#include <vector>

#include "core/cdat.hpp"

namespace atcd::defense {

/// One deployable countermeasure.
struct Countermeasure {
  std::string name;
  double cost = 0.0;                      ///< deployment cost
  std::vector<std::string> hardened_bas;  ///< BAS names it hardens
};

struct HardeningSemantics {
  /// Cost multiplier of a hardened BAS (its cost when the base is 0).
  /// Finite, so every backend stays exact — including BILP on hardened
  /// DAG models, whose simplex equilibrates rows and columns (lp.cpp) and
  /// stays stable to factors of 1e9 and beyond.  1e6 dwarfs every
  /// realistic attacker budget while keeping hardened-plus-base cost sums
  /// well inside exact double range.
  double cost_factor = 1e6;
  /// Success-probability multiplier of a hardened BAS.
  double prob_factor = 0.0;
};

/// The effective cost of a BAS with base cost \p base.
double hardened_cost(double base, bool hardened, const HardeningSemantics& s);
/// The effective success probability of a BAS with base \p base.
double hardened_prob(double base, bool hardened, const HardeningSemantics& s);

/// The BAS indices each countermeasure hardens, in catalogue order.
/// Throws ModelError when a name is unknown or names a gate.
std::vector<std::vector<std::uint32_t>> resolve(
    const AttackTree& t, const std::vector<Countermeasure>& catalogue);

/// The model with the selected countermeasures' BASs hardened.  Throws
/// ModelError on a selection of the wrong size or a bad BAS name.
CdAt harden(const CdAt& m, const std::vector<Countermeasure>& catalogue,
            const std::vector<bool>& selected, const HardeningSemantics& s);
CdpAt harden(const CdpAt& m, const std::vector<Countermeasure>& catalogue,
             const std::vector<bool>& selected, const HardeningSemantics& s);

}  // namespace atcd::defense
