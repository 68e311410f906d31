#include "core/problems.hpp"

#include "engine/planner.hpp"

namespace atcd {
namespace {

/// Resolves an Engine handle against the default registry: Auto goes to
/// the planner (Table I policy), everything else is an explicit request
/// validated against the backend's capabilities.
const engine::Backend& route(Engine e, engine::Problem p,
                             const engine::Traits& t) {
  const engine::Planner planner;
  if (e == Engine::Auto) return planner.plan(p, t);
  return planner.resolve(to_string(e), p, t);
}

}  // namespace

const char* to_string(Engine e) {
  // One entry per enumerator, in declaration order; the names double as
  // registry keys (engine/registry.hpp).
  constexpr const char* names[] = {"auto",  "enumerative", "bottom-up",
                                   "bilp",  "bdd",         "nsga2",
                                   "knapsack"};
  static_assert(sizeof(names) / sizeof(names[0]) ==
                    static_cast<std::size_t>(Engine::Knapsack) + 1,
                "to_string(Engine) must cover every enumerator");
  return names[static_cast<std::size_t>(e)];
}

Front2d cdpf(const CdAt& m, Engine e) {
  return route(e, engine::Problem::Cdpf, engine::traits_of(m)).cdpf(m, {});
}

OptAttack dgc(const CdAt& m, double budget, Engine e) {
  return route(e, engine::Problem::Dgc, engine::traits_of(m))
      .dgc(m, budget, {});
}

OptAttack cgd(const CdAt& m, double threshold, Engine e) {
  return route(e, engine::Problem::Cgd, engine::traits_of(m))
      .cgd(m, threshold, {});
}

Front2d cedpf(const CdpAt& m, Engine e) {
  return route(e, engine::Problem::Cedpf, engine::traits_of(m)).cedpf(m, {});
}

OptAttack edgc(const CdpAt& m, double budget, Engine e) {
  return route(e, engine::Problem::Edgc, engine::traits_of(m))
      .edgc(m, budget, {});
}

OptAttack cged(const CdpAt& m, double threshold, Engine e) {
  return route(e, engine::Problem::Cged, engine::traits_of(m))
      .cged(m, threshold, {});
}

}  // namespace atcd
