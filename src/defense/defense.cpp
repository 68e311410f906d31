#include "defense/defense.hpp"

#include <type_traits>

namespace atcd::defense {
namespace {

template <class Model>
Model harden_impl(const Model& m, const std::vector<Countermeasure>& catalogue,
                  const std::vector<bool>& selected,
                  const HardeningSemantics& s) {
  if (selected.size() != catalogue.size())
    throw ModelError("defense: selection size mismatch");
  const auto resolved = resolve(m.tree, catalogue);
  std::vector<bool> hardened(m.tree.bas_count(), false);
  for (std::size_t k = 0; k < resolved.size(); ++k)
    if (selected[k])
      for (const std::uint32_t i : resolved[k]) hardened[i] = true;
  Model out = m;
  for (std::uint32_t i = 0; i < hardened.size(); ++i) {
    out.cost[i] = hardened_cost(m.cost[i], hardened[i], s);
    if constexpr (std::is_same_v<Model, CdpAt>)
      out.prob[i] = hardened_prob(m.prob[i], hardened[i], s);
  }
  return out;
}

}  // namespace

double hardened_cost(double base, bool hardened, const HardeningSemantics& s) {
  if (!hardened) return base;
  return base > 0.0 ? base * s.cost_factor : s.cost_factor;
}

double hardened_prob(double base, bool hardened, const HardeningSemantics& s) {
  return hardened ? base * s.prob_factor : base;
}

std::vector<std::vector<std::uint32_t>> resolve(
    const AttackTree& t, const std::vector<Countermeasure>& catalogue) {
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(catalogue.size());
  for (const auto& cm : catalogue) {
    std::vector<std::uint32_t> idx;
    for (const auto& name : cm.hardened_bas) {
      const auto id = t.find(name);
      if (!id || !t.is_bas(*id))
        throw ModelError("defense: countermeasure '" + cm.name +
                         "' names unknown BAS '" + name + "'");
      idx.push_back(t.bas_index(*id));
    }
    out.push_back(std::move(idx));
  }
  return out;
}

CdAt harden(const CdAt& m, const std::vector<Countermeasure>& catalogue,
            const std::vector<bool>& selected, const HardeningSemantics& s) {
  return harden_impl(m, catalogue, selected, s);
}

CdpAt harden(const CdpAt& m, const std::vector<Countermeasure>& catalogue,
             const std::vector<bool>& selected, const HardeningSemantics& s) {
  return harden_impl(m, catalogue, selected, s);
}

}  // namespace atcd::defense
