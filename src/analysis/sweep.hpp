#pragma once
/// \file sweep.hpp
/// Parameter sweeps: how does the solution move as one or two model
/// parameters run over a grid?
///
/// A sweep replays an *ordered edit script* through an incremental
/// service::Session: consecutive grid points differ in exactly one leaf
/// attribute (two at a 2D row boundary), so on treelike models each
/// point pays only the edited leaf's root-path recompute — the rest of
/// the tree's per-node fronts come straight from the session memo
/// (bench/analysis_sweep.cpp quantifies the win over from-scratch
/// per-point solves).  DAG models transparently fall back to full
/// solves per point through the same Session, so sweeps work on every
/// model class the engines support.  The session binds no shared
/// subtree cache: its private memo is the only reuse, and it dies with
/// the sweep.
///
/// Cells are solved in a fixed order and the result vector is indexed
/// by grid coordinates, so sweep output — and its to_table() rendering —
/// is deterministic: same model + same axes = byte-identical tables,
/// independent of threads or cache state (tests/test_analysis.cpp).

#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "service/session.hpp"

namespace atcd::analysis {

/// One grid point: the axis value(s) it was solved at and the solve
/// outcome (per-cell failures are captured, not thrown).
struct SweepCell {
  double x = 0.0;
  double y = 0.0;  ///< 0 for 1D sweeps
  engine::SolveResult result;
};

struct SweepResult {
  engine::Problem problem = engine::Problem::Cdpf;
  std::vector<Axis> axes;  ///< the 1 or 2 swept axes, echoed
  /// Row-major over the grid: cell (xi, yi) is cells[yi * nx + xi]
  /// where nx = axes[0].values.size().
  std::vector<SweepCell> cells;
  /// True when the session's incremental fast path could engage
  /// (treelike model); false = the DAG from-scratch fallback ran.
  bool incremental = false;
  service::Session::MemoStats memo;  ///< session memo counters
};

/// Sweeps 1 or 2 axes over the model.  Axes are validated up front
/// (node exists, attribute applies, values in range) — ModelError names
/// the offending axis; per-cell *solver* failures land in the cell's
/// result instead.  axes[0] varies fastest.
SweepResult sweep(const CdAt& m, std::vector<Axis> axes, const Options& opt);
SweepResult sweep(const CdpAt& m, std::vector<Axis> axes, const Options& opt);

/// Stable tab-separated rendering: a '#' header naming the axes and
/// problem, a column-header line, then one line per cell in cell order.
/// Front problems report the front size and its hypervolume against the
/// sweep-wide max point cost; single-objective problems report
/// feasible/cost/damage.  Byte-identical for identical sweep results.
std::string to_table(const SweepResult& result);

}  // namespace atcd::analysis
