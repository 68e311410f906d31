#include "analysis/sensitivity.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "pareto/metrics.hpp"
#include "util/parallel.hpp"

namespace atcd::analysis {
namespace {

/// The perturbation of one parameter: costs and damages scale up, so a
/// zero base gets the step as an absolute bump (a relative step would be
/// a no-op); probabilities scale *down* so they stay in [0, 1] with no
/// clamping (a clamp would silently shrink the step near 1).
double perturb(Attribute attribute, double base, double step) {
  if (attribute == Attribute::Prob) return base / (1.0 + step);
  return base > 0.0 ? base * (1.0 + step) : step;
}

/// Sets the parameter \p attribute of BAS \p leaf to \p value.
template <class Model>
void set(Model& m, Attribute attribute, NodeId leaf, double value) {
  const std::uint32_t i = m.tree.bas_index(leaf);
  switch (attribute) {
    case Attribute::Cost:
      m.cost[i] = value;
      break;
    case Attribute::Damage:
      m.damage[leaf] = value;
      break;
    case Attribute::Prob:
      if constexpr (std::is_same_v<Model, CdpAt>) m.prob[i] = value;
      break;
    case Attribute::Defense:
      break;  // not a leaf parameter; never generated below
  }
}

template <class Model>
SensitivityReport sensitivity_impl(const Model& m, const Options& opt) {
  constexpr bool probabilistic = std::is_same_v<Model, CdpAt>;
  SensitivityReport report;
  report.problem =
      probabilistic ? engine::Problem::Cedpf : engine::Problem::Cdpf;
  report.step = opt.sensitivity_step;

  // One entry per leaf parameter, in BAS-index order (the ranking's
  // deterministic tie-break order).
  std::vector<NodeId> leaf_of;
  for (NodeId v : m.tree.bas_ids()) {
    const std::uint32_t i = m.tree.bas_index(v);
    std::vector<std::pair<Attribute, double>> params = {
        {Attribute::Cost, m.cost[i]}, {Attribute::Damage, m.damage[v]}};
    if constexpr (probabilistic)
      params.push_back({Attribute::Prob, m.prob[i]});
    for (const auto& [attribute, base] : params) {
      SensitivityEntry e;
      e.node = m.tree.name(v);
      e.attribute = attribute;
      e.base = base;
      e.perturbed = perturb(attribute, base, report.step);
      report.ranking.push_back(std::move(e));
      leaf_of.push_back(v);
    }
  }

  engine::SolveResult base = engine::solve_one(
      engine::Instance::of(report.problem, m, 0.0, opt.engine_name),
      opt.batch);
  if (!base.ok) throw Error("sensitivity: base solve failed: " + base.error);
  report.base = std::move(base.front);

  // Each worker perturbs one parameter of its own copy of the model,
  // solves it, scores the front against the base, and restores the
  // parameter, so only the in-flight scenarios' fronts are alive.
  std::vector<std::optional<Model>> copies(
      util::worker_count(opt.batch.threads, report.ranking.size()));
  util::for_each_index(
      report.ranking.size(), opt.batch.threads,
      [&](std::size_t worker, std::size_t k) {
        SensitivityEntry& e = report.ranking[k];
        if (e.perturbed == e.base) return;  // no-op scenario: distance 0
        std::optional<Model>& copy = copies[worker];
        if (!copy) copy.emplace(m);
        set(*copy, e.attribute, leaf_of[k], e.perturbed);
        const engine::SolveResult r = engine::solve_one(
            engine::Instance::of(report.problem, *copy, 0.0, opt.engine_name),
            opt.batch);
        set(*copy, e.attribute, leaf_of[k], e.base);
        if (r.ok)
          e.distance = front_distance(report.base, r.front);
        else
          e.error = r.error;
      });
  std::stable_sort(report.ranking.begin(), report.ranking.end(),
                   [](const SensitivityEntry& a, const SensitivityEntry& b) {
                     if (a.distance != b.distance)
                       return a.distance > b.distance;
                     if (a.attribute != b.attribute)
                       return static_cast<int>(a.attribute) <
                              static_cast<int>(b.attribute);
                     return a.node < b.node;
                   });
  return report;
}

}  // namespace

SensitivityReport sensitivity(const CdAt& m, const Options& opt) {
  return sensitivity_impl(m, opt);
}

SensitivityReport sensitivity(const CdpAt& m, const Options& opt) {
  return sensitivity_impl(m, opt);
}

std::string to_table(const SensitivityReport& report) {
  std::ostringstream out;
  out << "# sensitivity problem=" << engine::to_string(report.problem)
      << " step=" << format_num(report.step)
      << " base-points=" << report.base.size() << '\n'
      << "rank\tparameter\tbase\tperturbed\tdistance\n";
  for (std::size_t i = 0; i < report.ranking.size(); ++i) {
    const SensitivityEntry& e = report.ranking[i];
    out << i + 1 << '\t' << to_string(e.attribute) << ':' << e.node << '\t'
        << format_num(e.base) << '\t' << format_num(e.perturbed) << '\t';
    if (!e.error.empty()) {
      std::string err = e.error;
      std::replace(err.begin(), err.end(), '\n', ' ');
      out << "error=" << err << '\n';
    } else {
      out << format_num(e.distance) << '\n';
    }
  }
  return out.str();
}

}  // namespace atcd::analysis
