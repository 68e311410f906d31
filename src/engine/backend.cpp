#include "engine/backend.hpp"

namespace atcd::engine {

const char* to_string(Problem p) {
  constexpr const char* names[] = {"cdpf", "dgc", "cgd",
                                   "cedpf", "edgc", "cged"};
  static_assert(sizeof(names) / sizeof(names[0]) ==
                static_cast<std::size_t>(Problem::Cged) + 1);
  return names[static_cast<std::size_t>(p)];
}

namespace {

bool is_additive(const AttackTree& t, const std::vector<double>& damage) {
  for (NodeId v = 0; v < static_cast<NodeId>(t.node_count()); ++v)
    if (!t.is_bas(v) && damage[v] != 0.0) return false;
  return true;
}

}  // namespace

Traits traits_of(const CdAt& m) {
  return Traits{m.tree.is_treelike(), /*probabilistic=*/false,
                is_additive(m.tree, m.damage), m.tree.bas_count()};
}

Traits traits_of(const CdpAt& m) {
  return Traits{m.tree.is_treelike(), /*probabilistic=*/true,
                is_additive(m.tree, m.damage), m.tree.bas_count()};
}

bool Backend::supports(Problem p, const Traits& t) const {
  return unsupported_reason(p, t).empty();
}

std::string Backend::unsupported_reason(Problem p, const Traits& t) const {
  const Capabilities c = capabilities();
  const bool prob = is_probabilistic(p);
  const bool cell = t.treelike ? (prob ? c.tree_prob : c.tree_det)
                               : (prob ? c.dag_prob : c.dag_det);
  if (!cell) {
    // Name the coarser missing capability when a whole row/column is
    // absent; otherwise name the precise Table I cell.
    if (prob && !c.tree_prob && !c.dag_prob)
      return "does not support probabilistic models (problem " +
             std::string(to_string(p)) + " needs expected damage)";
    if (!prob && !c.tree_det && !c.dag_det)
      return "supports only probabilistic models (problem " +
             std::string(to_string(p)) + " is deterministic)";
    if (!t.treelike)
      return "does not support DAG-shaped models (requires treelike)";
    return std::string("does not support treelike ") +
           (prob ? "probabilistic" : "deterministic") + " models";
  }
  if (is_front(p) && !c.fronts)
    return "does not compute Pareto fronts (problem " +
           std::string(to_string(p)) + ")";
  if (c.additive_only && !t.additive)
    return "requires an additive model (zero damage on internal nodes)";
  return {};
}

void Backend::reject(Problem p, const Traits& t) const {
  std::string reason = unsupported_reason(p, t);
  if (reason.empty())
    reason = std::string("does not implement problem ") + to_string(p);
  throw UnsupportedError(std::string(to_string(p)) + ": engine '" + name() +
                         "' " + reason);
}

Front2d Backend::cdpf(const CdAt& m, const SolveContext&) const {
  reject(Problem::Cdpf, traits_of(m));
}
OptAttack Backend::dgc(const CdAt& m, double, const SolveContext&) const {
  reject(Problem::Dgc, traits_of(m));
}
OptAttack Backend::cgd(const CdAt& m, double, const SolveContext&) const {
  reject(Problem::Cgd, traits_of(m));
}
Front2d Backend::cedpf(const CdpAt& m, const SolveContext&) const {
  reject(Problem::Cedpf, traits_of(m));
}
OptAttack Backend::edgc(const CdpAt& m, double, const SolveContext&) const {
  reject(Problem::Edgc, traits_of(m));
}
OptAttack Backend::cged(const CdpAt& m, double, const SolveContext&) const {
  reject(Problem::Cged, traits_of(m));
}

}  // namespace atcd::engine
