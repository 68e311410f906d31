/// Ablation A3 — staircase vs quadratic Pareto pruning.
///
/// The min_U map is the inner loop of both bottom-up engines.  Our
/// implementation keeps a (damage, activation) staircase and runs in
/// O(n log n); the textbook implementation compares all pairs in O(n^2).
/// On the probabilistic engine — where per-node fronts grow large
/// (Example 10) — the difference dominates the total runtime.

#include <cstdio>

#include "bench/common.hpp"
#include "casestudies/panda.hpp"
#include "core/bottom_up_core.hpp"
#include "core/cdat.hpp"
#include "pareto/triple.hpp"
#include "util/rng.hpp"

using namespace atcd;
using namespace atcd::bench;

int main() {
  print_header("Ablation A3 — staircase vs O(n^2) Pareto pruning",
               "implementation choice inside Thms 4 & 9 (min_U)");

  // Microbenchmark on raw triple sets.
  std::printf("\nraw prune_min on n random PTrip triples (10 rounds "
              "each):\n%10s %14s %14s %9s\n", "n", "staircase", "quadratic",
              "speedup");
  Rng rng(99);
  for (std::size_t n : {100u, 400u, 1600u, 6400u}) {
    std::vector<AttrTriple> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      AttrTriple a;
      a.t = {rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform()};
      a.witness = DynBitset(8);
      xs.push_back(std::move(a));
    }
    double t_fast = 0, t_slow = 0;
    for (int round = 0; round < 10; ++round) {
      t_fast += time_once([&] { (void)prune_min(xs); });
      t_slow += time_once([&] { (void)prune_min_quadratic(xs); });
    }
    std::printf("%10zu %13.5fs %13.5fs %8.1fx\n", n, t_fast, t_slow,
                t_slow / std::max(1e-9, t_fast));
  }

  // End-to-end on the probabilistic panda sweep.
  const auto m = casestudies::make_panda();
  detail::SweepAblation slow;
  slow.quadratic_prune = true;
  const double t_fast = time_once([&] {
    (void)detail::bottom_up_root_front(m.tree, m.cost, m.damage, m.prob);
  });
  const double t_slow = time_once([&] {
    (void)detail::bottom_up_root_front_reference(m.tree, m.cost, m.damage,
                                                 m.prob, kNoBudget, slow);
  });
  std::printf("\nprobabilistic panda sweep (Thm 9): staircase %.5fs vs "
              "quadratic %.5fs (%.1fx)\n", t_fast, t_slow,
              t_slow / std::max(1e-9, t_fast));
  std::printf("both variants produce identical fronts (asserted in "
              "tests/test_pareto.cpp).\n");
  return 0;
}
