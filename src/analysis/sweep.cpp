#include "analysis/sweep.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "pareto/metrics.hpp"

namespace atcd::analysis {
namespace {

service::Session::Options session_options(const Options& opt) {
  service::Session::Options s;
  s.problem = opt.problem;
  s.bound = opt.bound;
  s.engine_name = opt.engine_name;
  s.batch = opt.batch;
  s.hardening = opt.hardening;
  // The sweep consumes only Response::result; skipping the per-point
  // model snapshot keeps each grid edit O(depth) instead of forcing a
  // copy-on-write model clone per point.
  s.snapshots = false;
  return s;
}

/// Up-front axis validation, so a bad grid fails before the first solve
/// and mid-sweep edits can only fail for solver reasons (which land in
/// the cell results).  Throws ModelError naming the offending axis.
void validate_axes(const AttackTree& tree, bool probabilistic,
                   const std::vector<Axis>& axes) {
  if (axes.empty() || axes.size() > 2)
    throw ModelError("sweep: takes 1 or 2 axes, got " +
                     std::to_string(axes.size()));
  if (axes.size() == 2 && axes[0].attribute == axes[1].attribute &&
      axes[0].node == axes[1].node)
    throw ModelError("sweep: both axes target " +
                     std::string(to_string(axes[0].attribute)) + " of '" +
                     axes[0].node + "'");
  for (const Axis& axis : axes) {
    const std::string where = std::string("sweep: axis ") +
                              to_string(axis.attribute) + ":" + axis.node;
    if (axis.values.empty()) throw ModelError(where + " has no grid values");
    const auto v = tree.find(axis.node);
    if (!v) throw ModelError(where + ": no node named '" + axis.node + "'");
    if (axis.attribute != Attribute::Damage && !tree.is_bas(*v))
      throw ModelError(where + ": '" + axis.node + "' is not a BAS");
    if (axis.attribute == Attribute::Prob && !probabilistic)
      throw ModelError(where + ": the problem is deterministic");
    for (const double value : axis.values) {
      if (axis.attribute == Attribute::Prob &&
          !(value >= 0.0 && value <= 1.0))
        throw ModelError(where + ": probability values must lie in [0,1]");
      if ((axis.attribute == Attribute::Cost ||
           axis.attribute == Attribute::Damage) &&
          !(value >= 0.0))
        throw ModelError(where + ": values must be >= 0");
    }
  }
}

/// Applies one axis value as a session edit.  Defense axes are stateful
/// toggles, so the current hardened state rides along in \p defended.
std::string apply(service::Session& session, const Axis& axis, double value,
                  bool* defended) {
  switch (axis.attribute) {
    case Attribute::Cost:
      return session.set_cost(axis.node, value);
    case Attribute::Prob:
      return session.set_prob(axis.node, value);
    case Attribute::Damage:
      return session.set_damage(axis.node, value);
    case Attribute::Defense: {
      const bool want = value != 0.0;
      if (want == *defended) return {};
      *defended = want;
      return session.toggle_defense(axis.node);
    }
  }
  return "sweep: unreachable attribute";
}

template <class Model>
SweepResult sweep_impl(const Model& m, std::vector<Axis> axes,
                       const Options& opt) {
  validate_axes(m.tree, engine::is_probabilistic(opt.problem), axes);
  SweepResult out;
  out.problem = opt.problem;
  out.incremental = m.tree.is_treelike();

  service::Session session(m, session_options(opt));
  bool defended[2] = {false, false};
  const Axis& ax = axes[0];
  const std::size_t rows = axes.size() == 2 ? axes[1].values.size() : 1;
  out.cells.reserve(ax.values.size() * rows);
  for (std::size_t yi = 0; yi < rows; ++yi) {
    const double yv = axes.size() == 2 ? axes[1].values[yi] : 0.0;
    if (axes.size() == 2)
      if (const std::string err = apply(session, axes[1], yv, &defended[1]);
          !err.empty())
        throw ModelError("sweep: " + err);
    for (const double xv : ax.values) {
      if (const std::string err = apply(session, ax, xv, &defended[0]);
          !err.empty())
        throw ModelError("sweep: " + err);
      SweepCell cell;
      cell.x = xv;
      cell.y = yv;
      cell.result = session.resolve().result;
      out.cells.push_back(std::move(cell));
    }
  }
  out.axes = std::move(axes);
  out.memo = session.memo_stats();
  return out;
}

}  // namespace

SweepResult sweep(const CdAt& m, std::vector<Axis> axes, const Options& opt) {
  return sweep_impl(m, std::move(axes), opt);
}

SweepResult sweep(const CdpAt& m, std::vector<Axis> axes,
                  const Options& opt) {
  return sweep_impl(m, std::move(axes), opt);
}

std::string to_table(const SweepResult& r) {
  const bool two_d = r.axes.size() == 2;
  const bool front = engine::is_front(r.problem);
  std::ostringstream out;
  out << "# sweep problem=" << engine::to_string(r.problem);
  for (std::size_t i = 0; i < r.axes.size(); ++i)
    out << ' ' << "xy"[i] << '=' << to_string(r.axes[i].attribute) << ':'
        << r.axes[i].node;
  // The hypervolume reference is a pure function of the sweep results
  // (max point cost over every cell's front), keeping the rendering
  // deterministic without a caller-supplied reference.
  double ref_cost = 0.0;
  if (front)
    for (const SweepCell& c : r.cells)
      for (const FrontPoint& p : c.result.front)
        ref_cost = std::max(ref_cost, p.value.cost);
  if (front) out << " hv-ref=" << format_num(ref_cost);
  out << '\n';
  out << 'x' << (two_d ? "\ty" : "")
      << (front ? "\tpoints\thypervolume" : "\tfeasible\tcost\tdamage")
      << '\n';
  for (const SweepCell& c : r.cells) {
    out << format_num(c.x);
    if (two_d) out << '\t' << format_num(c.y);
    if (!c.result.ok) {
      std::string err = c.result.error;
      std::replace(err.begin(), err.end(), '\n', ' ');
      out << "\terror=" << err << '\n';
      continue;
    }
    if (front) {
      out << '\t' << c.result.front.size() << '\t'
          << format_num(hypervolume(c.result.front, ref_cost)) << '\n';
    } else if (!c.result.attack.feasible) {
      out << "\tfalse\t-\t-\n";
    } else {
      out << "\ttrue\t" << format_num(c.result.attack.cost) << '\t'
          << format_num(c.result.attack.damage) << '\n';
    }
  }
  return out.str();
}

}  // namespace atcd::analysis
