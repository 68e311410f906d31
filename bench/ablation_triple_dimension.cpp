/// Ablation A1 — why the third DTrip coordinate exists (paper Example 4).
///
/// The bottom-up engine propagates (cost, damage, activation) triples; a
/// "naive" 2-D propagation drops the activation coordinate and prunes
/// attacks that are locally non-optimal but could unlock ancestor damage.
/// This bench runs both on random treelike models and reports how often —
/// and by how much — the naive variant UNDER-reports the achievable
/// damage.  It is faster, but wrong; this quantifies the trade.

#include <cstdio>

#include "bench/common.hpp"
#include "core/bottom_up.hpp"
#include "core/enumerative.hpp"
#include "util/rng.hpp"

using namespace atcd;
using namespace atcd::bench;

namespace {

AttackTree random_tree(Rng& rng, std::size_t n_bas) {
  AttackTree t;
  std::vector<NodeId> open;
  for (std::size_t i = 0; i < n_bas; ++i)
    open.push_back(t.add_bas("b" + std::to_string(i)));
  int g = 0;
  while (open.size() > 1) {
    const std::size_t arity = std::min<std::size_t>(open.size(), 2 + rng.below(2));
    std::vector<NodeId> cs;
    for (std::size_t i = 0; i < arity; ++i) {
      const std::size_t pick = rng.below(open.size());
      cs.push_back(open[pick]);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    open.push_back(t.add_gate(rng.chance(0.5) ? NodeType::OR : NodeType::AND,
                              "g" + std::to_string(g++), cs));
  }
  t.set_root(open[0]);
  t.finalize();
  return t;
}

}  // namespace

int main() {
  print_header("Ablation A1 — DTrip activation coordinate on vs off",
               "paper Sec. VI, Example 4 (soundness of the triple domain)");
  Rng rng(314);
  const int trials = 200;
  int wrong = 0;
  double worst_rel_err = 0.0, t_sound = 0.0, t_naive = 0.0;
  for (int it = 0; it < trials; ++it) {
    const auto t = random_tree(rng, 10);
    const auto m = randomize_decorations(t, rng).deterministic();
    const std::vector<double> unit(m.tree.bas_count(), 1.0);

    Timer timer;
    const auto sound =
        detail::bottom_up_root_front(m.tree, m.cost, m.damage, unit);
    t_sound += timer.seconds();

    detail::SweepAblation naive_opt;
    naive_opt.ignore_activation = true;
    timer.restart();
    const auto naive = detail::bottom_up_root_front_reference(
        m.tree, m.cost, m.damage, unit, kNoBudget, naive_opt);
    t_naive += timer.seconds();

    double dmax_sound = 0, dmax_naive = 0;
    for (const auto& x : sound) dmax_sound = std::max(dmax_sound, x.t.damage);
    for (const auto& x : naive) dmax_naive = std::max(dmax_naive, x.t.damage);
    if (dmax_naive < dmax_sound - 1e-9) {
      ++wrong;
      worst_rel_err = std::max(
          worst_rel_err, (dmax_sound - dmax_naive) / std::max(1.0, dmax_sound));
    }
  }
  std::printf("\nrandom treelike models: %d  (|B| = 10, paper Sec. X "
              "decorations)\n", trials);
  std::printf("naive 2-D propagation under-reports max damage on %d/%d "
              "models (%.0f%%)\n", wrong, trials, 100.0 * wrong / trials);
  std::printf("worst relative damage error: %.1f%%\n", 100.0 * worst_rel_err);
  std::printf("time: sound %.4fs vs naive %.4fs (the naive variant is "
              "%.2fx faster — and wrong)\n",
              t_sound, t_naive, t_sound / std::max(1e-9, t_naive));
  std::printf("\nconclusion: the activation coordinate is load-bearing; "
              "Example 4 generalises to ~%d%% of random models.\n",
              static_cast<int>(100.0 * wrong / trials));
  return 0;
}
