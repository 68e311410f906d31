#pragma once
/// \file analysis.hpp
/// Shared vocabulary of the scenario-analysis subsystem.
///
/// The paper's cost-damage Pareto fronts are inputs to security
/// decisions, not one-shot answers: which leaf parameters actually move
/// the front?  What is the best set of defenses under a defender
/// budget?  How does the front shift as a cost estimate varies?  The
/// three modules of src/analysis/ answer these by turning one model
/// into many derived solves and aggregating the results:
///
///   * sweep.hpp       — 1D/2D grids over a leaf attribute or defense
///                       toggle, replayed through an incremental
///                       service::Session (each grid point pays only a
///                       root-path recompute on treelike models).
///   * sensitivity.hpp — finite-difference perturbation of every leaf
///                       parameter, ranked by pareto/metrics.hpp's
///                       front-distance.
///   * portfolio.hpp   — optimal defense-subset selection under a
///                       defender budget: the one defense search.
///
/// Sensitivity and portfolio run one scenario per job of the shared
/// worker loop (util/parallel.hpp): the worker sets the scenario's
/// parameters on its own working copy of the model, solves it, scores
/// it, and restores the copy.  So an analysis holds at most one
/// scenario per worker plus one score per scenario, never a model or a
/// front per scenario.  Defenses harden BASs by the one rule of
/// defense/defense.hpp, as sessions (and so sweeps) do.
///
/// All three are deterministic by construction: scenarios are solved
/// independently and aggregation is a pure function of their scores,
/// so the rendered tables are byte-identical across thread counts
/// (tests/test_analysis.cpp pins this).
///
/// No analysis binds a cache: scenarios share no subtree fronts and are
/// never written to the service's result cache, so an analysis costs
/// what its own solves cost and leaves the served caches as it found
/// them.  A sweep's session keeps its private per-node memo, which dies
/// with the sweep.

#include <optional>
#include <string>
#include <vector>

#include "defense/defense.hpp"
#include "engine/batch.hpp"

namespace atcd::analysis {

/// A sweepable / perturbable model parameter.  Cost and Prob attach to a
/// BAS (per BAS index); Damage attaches to any node; Defense is the
/// session-style hardening toggle of a BAS (axis values are 0 = off,
/// nonzero = hardened).
enum class Attribute { Cost, Prob, Damage, Defense };

const char* to_string(Attribute a);

/// One sweep axis: the grid of values an attribute of one node runs
/// through.
struct Axis {
  Attribute attribute = Attribute::Cost;
  std::string node;            ///< BAS name (Cost/Prob/Defense) or any node
  std::vector<double> values;  ///< grid values, in sweep order

  /// Evenly spaced grid of \p steps >= 1 values over [lo, hi] (a single
  /// step collapses to lo).
  static Axis linspace(Attribute attribute, std::string node, double lo,
                       double hi, std::size_t steps);
  /// The {0, 1} off/on axis of a defense toggle.
  static Axis toggle(std::string bas);
};

/// Parses the protocol/CLI axis spec
///   <attr>:<node>:<lo>:<hi>:<steps>   with <attr> in cost|prob|damage
///   defense:<bas>                      (values 0, 1 implied)
/// Returns nullopt and sets \p error on a malformed spec.
std::optional<Axis> parse_axis(const std::string& spec, std::string* error);

/// Round-trippable decimal rendering: "%.15g" when that parses back to
/// \p v exactly, else "%.17g" (both in the "C" locale).  The one number
/// format every analysis table and the JSON codec use, so rendered
/// output is byte-stable across runs, thread counts and locales.
std::string format_num(double v);

/// Appends format_num(v) to \p out without a temporary string.
void append_num(std::string* out, double v);

/// Parses the protocol/CLI countermeasure spec
///   <name>:<cost>:<bas>[+<bas>...]
/// Returns nullopt and sets \p error on a malformed spec.
std::optional<defense::Countermeasure> parse_countermeasure(
    const std::string& spec, std::string* error);

/// Knobs shared by the three analyses.  `problem`/`bound` select the
/// per-scenario solve (sensitivity ignores them: it always compares the
/// model's front problem; portfolio reads `bound` as the attacker
/// budget of the residual DgC/EDgC).  `batch` carries the registry /
/// policy / thread count (util::worker_count) for the scenario loop.
struct Options {
  engine::Problem problem = engine::Problem::Cdpf;
  double bound = 0.0;        ///< budget/threshold; ignored by the fronts
  std::string engine_name;   ///< explicit engine; "" = planner's choice
  engine::BatchOptions batch;
  /// Hardening applied by Defense axes and portfolio selections
  /// (defense.hpp's rule and default factors).
  defense::HardeningSemantics hardening;
  /// Sensitivity's relative finite-difference step: costs and damages
  /// are scaled by (1 + step), probabilities by 1 / (1 + step).
  double sensitivity_step = 0.05;
  /// Portfolio enumeration guard: 2^|catalogue| scenario cap.
  std::size_t max_portfolio_defenses = 20;
};

}  // namespace atcd::analysis
