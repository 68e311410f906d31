/// Defense planning on top of cost-damage analysis.
///
/// The paper's case study ends with advice ("security improvements should
/// focus on internal leakage and the base station; after defenses are put
/// in place, a new cost-damage analysis is needed").  This example
/// automates that loop with the defense module: a countermeasure
/// catalogue for the panda IoT network, the defender's own Pareto front
/// (defense budget vs residual attacker damage), and a greedy plan under
/// a fixed security budget.

#include <cstdio>

#include "casestudies/panda.hpp"
#include "core/problems.hpp"
#include "defense/defense.hpp"

using namespace atcd;

int main() {
  const auto m = casestudies::make_panda().deterministic();

  const std::vector<defense::Countermeasure> catalogue{
      {"vet_insiders", 6.0, {"b18_internal_leakage"}},
      {"guard_base_station", 5.0,
       {"b19_look_for_base_station", "b15_find_base_station"}},
      {"code_signing", 4.0,
       {"b21_send_malicious_codes", "b22_malicious_codes_ran"}},
      {"encrypt_traffic", 7.0,
       {"b8_physical_layer", "b9_mac_layer", "b10_appliance_layer"}},
      {"tamper_proof_nodes", 3.0, {"b5_crack_security"}},
      {"vendor_audit", 2.0, {"b17_purchase_from_3rd_party"}},
  };

  std::printf("Defense planning for the panda IoT network\n");
  std::printf("catalogue: %zu countermeasures; attacker budget: 30\n\n",
              catalogue.size());

  defense::DefenseOptions opt;
  opt.attacker_budget = 30.0;

  // The defender's Pareto front: cheapest portfolio per residual level.
  std::printf("Defense-cost vs residual-damage Pareto front:\n");
  std::printf("%14s %18s  %s\n", "defense cost", "residual damage",
              "portfolio");
  for (const auto& p : defense::defense_front(m, catalogue, opt)) {
    std::printf("%14g %18g  [", p.defense_cost, p.residual_damage);
    for (std::size_t i = 0; i < p.portfolio.size(); ++i)
      std::printf("%s%s", i ? ", " : "", p.portfolio[i].c_str());
    std::printf("]\n");
  }

  // Greedy planning under a fixed security budget.
  std::printf("\nGreedy plan with defense budget 12:\n");
  for (const auto& step : defense::greedy_defense(m, catalogue, 12.0, opt)) {
    std::printf("  spend %4g -> residual %5g", step.defense_cost,
                step.residual_damage);
    if (!step.portfolio.empty())
      std::printf("  (+ %s)", step.portfolio.back().c_str());
    std::printf("\n");
  }

  return 0;
}
