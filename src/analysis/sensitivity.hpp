#pragma once
/// \file sensitivity.hpp
/// Sensitivity ranking: which leaf parameters actually move the Pareto
/// front?
///
/// Decorations are estimates; before acting on a front an analyst wants
/// to know which of them the conclusions hinge on.  sensitivity()
/// perturbs every leaf parameter by a relative finite-difference step —
/// each BAS's cost and damage scaled up by (1 + step), each success
/// probability scaled down by 1 / (1 + step) so it stays in [0, 1] —
/// re-solves the model's front problem (CDPF / CEDPF) once per
/// perturbation, and ranks the parameters by pareto/metrics.hpp's
/// front_distance between the perturbed and base fronts: the maximal
/// attainable-damage shift at equal cost.
///
/// The base front is solved first.  Then each perturbation is one job
/// of the shared worker loop: the worker sets the parameter on its own
/// copy of the model, solves it, keeps only the distance to the base
/// front, and restores the parameter.  No cache is bound, so a
/// request's memory is the base front, one entry per parameter, and
/// its in-flight solves.  Results are deterministic across thread
/// counts; ties in the ranking break by (attribute, node name).

#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "pareto/front2d.hpp"

namespace atcd::analysis {

/// One ranked parameter.
struct SensitivityEntry {
  std::string node;          ///< BAS name (damage: the leaf's node name)
  Attribute attribute = Attribute::Cost;  ///< Cost, Damage, or Prob
  double base = 0.0;         ///< the parameter's model value
  double perturbed = 0.0;    ///< the value the scenario solved with
  double distance = 0.0;     ///< front_distance(base front, perturbed front)
  std::string error;         ///< non-empty when the scenario solve failed
};

struct SensitivityReport {
  engine::Problem problem = engine::Problem::Cdpf;  ///< the compared front
  double step = 0.0;                     ///< the relative step used
  Front2d base;                          ///< the unperturbed front
  std::vector<SensitivityEntry> ranking; ///< descending by distance
};

/// Ranks every leaf parameter of the model (cost and damage per BAS,
/// plus success probability for probabilistic models) by its
/// finite-difference impact on the front.  Options::sensitivity_step
/// sets the relative step; problem/bound are ignored — the metric is
/// front-based, CDPF for CdAt and CEDPF for CdpAt.  Throws Error when
/// the base solve fails (per-perturbation failures rank last with a
/// zero distance and are reported in the table).
SensitivityReport sensitivity(const CdAt& m, const Options& opt);
SensitivityReport sensitivity(const CdpAt& m, const Options& opt);

/// Stable tab-separated rendering: '#' header, column header, one line
/// per ranked parameter (rank, attribute:node, base, perturbed,
/// distance).  Byte-identical for identical reports.
std::string to_table(const SensitivityReport& report);

}  // namespace atcd::analysis
