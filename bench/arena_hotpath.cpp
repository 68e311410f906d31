/// arena_hotpath — quantifies the arena/SoA hot-path win: the same
/// bottom-up sweep (identical results, byte for byte) run twice per
/// model, once through the default arena stack machine
/// (bottom_up_arena.cpp) and once through the recursive pointer-chasing
/// reference sweep over AoS fronts (bottom_up_root_front_reference).
///
/// Models are complete binary AND/OR trees with paper-range random
/// decorations, the same family the incremental bench uses, in both
/// budget classes:
///
///   * dgc(U=15): budget-pruned sweep — per-node fronts stay small, so
///     the traversal/allocation machinery dominates and the arena win is
///     largest.  The headline gate lives here: depth >= 12 solves must
///     be >= 2x faster than the pointer path.
///   * cdpf: unbudgeted full fronts — the cross-product/prune kernels
///     dominate; reported to show the win in the compute-bound regime.
///
/// The cgd(L=0.4·D) rows time CgD at 40% of the maximum damage D, both
/// on the arena sweep: read off the full CDPF front, against the pruned
/// sweep that keeps only attacks no dearer than a greedy feasible one
/// (cgd_bottom_up).  Their speedup is full-front time over pruned time.
///
/// Every timed pair is checked for byte-identical fronts (or answers); a
/// bench that drifts from correctness is measuring nothing.
///
/// Usage: bench_arena_hotpath [--rounds N] [--smoke | --full]
///                            [--json <path>]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/bottom_up.hpp"
#include "core/bottom_up_core.hpp"
#include "core/cdat.hpp"
#include "util/rng.hpp"

using namespace atcd;

namespace {

/// Complete binary tree of the given depth, alternating OR/AND levels,
/// with Sec. X random decorations (same family as bench_incremental_edits).
CdAt complete_binary_model(Rng& rng, int depth) {
  AttackTree t;
  std::vector<NodeId> level;
  const std::size_t n_leaves = std::size_t{1} << depth;
  for (std::size_t i = 0; i < n_leaves; ++i)
    level.push_back(t.add_bas("b" + std::to_string(i)));
  int g = 0;
  for (int d = depth; d > 0; --d) {
    const NodeType type = d % 2 ? NodeType::OR : NodeType::AND;
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(t.add_gate(type, "g" + std::to_string(g++),
                                {level[i], level[i + 1]}));
    level = std::move(next);
  }
  t.set_root(level[0]);
  t.finalize();
  return randomize_decorations(t, rng).deterministic();
}

bool same_front(const std::vector<AttrTriple>& a,
                const std::vector<AttrTriple>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].t != b[i].t || a[i].witness != b[i].witness) return false;
  return true;
}

struct Case {
  double budget;
  const char* label;
  std::vector<int> depths;
};

bool same_answer(const OptAttack& a, const OptAttack& b) {
  return a.feasible == b.feasible && a.cost == b.cost &&
         a.damage == b.damage && a.witness == b.witness;
}

OptAttack full_front_cgd(const CdAt& m, double threshold) {
  const Front2d f = cdpf_bottom_up(m);
  const FrontPoint* p = f.min_cost_with_damage(threshold);
  if (!p) return {};
  return OptAttack{true, p->value.cost, p->value.damage, p->witness};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bool full = bench::has_flag(argc, argv, "--full");
  std::size_t rounds = full ? 9 : (smoke ? 2 : 5);
  if (const std::string v = bench::flag_value(argc, argv, "--rounds");
      !v.empty())
    rounds = std::strtoull(v.c_str(), nullptr, 10);

  // The gate depth stays in every mode — a smoke run that skips the gate
  // would let nightly CI go green on a regressed hot path.
  std::vector<Case> cases;
  std::vector<int> cgd_depths;
  if (smoke) {
    cases = {{15.0, "dgc(U=15)", {8, 12}}, {kNoBudget, "cdpf", {8}}};
    cgd_depths = {8};
  } else if (full) {
    cases = {{15.0, "dgc(U=15)", {8, 10, 12, 14}},
             {kNoBudget, "cdpf", {6, 8, 10}}};
    cgd_depths = {6, 8, 10};
  } else {
    cases = {{15.0, "dgc(U=15)", {8, 10, 12}}, {kNoBudget, "cdpf", {6, 8, 10}}};
    cgd_depths = {6, 8, 10};
  }

  std::printf(
      "arena_hotpath: arena/SoA stack machine vs recursive pointer sweep,\n"
      "and full-front vs pruned CgD on the arena sweep\n"
      "(complete binary trees, %zu rounds per point; times are mean "
      "microseconds per solve)\n\n",
      rounds);

  bench::JsonReport report("arena_hotpath");
  bool gate_seen = false;
  bool gate_ok = true;

  for (const Case& c : cases) {
    std::printf("%-10s %6s %8s %14s %14s %9s\n", c.label, "depth", "nodes",
                "pointer(us)", "arena(us)", "speedup");
    for (const int depth : c.depths) {
      Rng rng(0xA7E7Aull * 131 + static_cast<std::uint64_t>(depth));
      const CdAt m = complete_binary_model(rng, depth);
      const std::vector<double> prob(m.cost.size(), 1.0);

      detail::BottomUpOptions arena_opt;
      arena_opt.budget = c.budget;

      // One untimed warm-up pair, also the equivalence check.
      const auto ref = detail::bottom_up_root_front_reference(
          m.tree, m.cost, m.damage, prob, c.budget);
      const auto got = detail::bottom_up_root_front(m.tree, m.cost, m.damage,
                                                    prob, arena_opt);
      if (!same_front(ref, got)) {
        std::fprintf(stderr, "MISMATCH: arena front != pointer front "
                             "(%s depth %d)\n",
                     c.label, depth);
        return 1;
      }

      std::vector<double> pointer_rounds_s, arena_rounds_s;
      for (std::size_t round = 0; round < rounds; ++round) {
        std::vector<AttrTriple> out;
        pointer_rounds_s.push_back(bench::time_once([&] {
          out = detail::bottom_up_root_front_reference(m.tree, m.cost,
                                                       m.damage, prob,
                                                       c.budget);
        }));
        arena_rounds_s.push_back(bench::time_once([&] {
          out = detail::bottom_up_root_front(m.tree, m.cost, m.damage, prob,
                                             arena_opt);
        }));
      }
      const bench::Stats pointer_stats = bench::stats_of(pointer_rounds_s);
      const bench::Stats arena_stats = bench::stats_of(arena_rounds_s);
      const double pointer_us = pointer_stats.mean * 1e6;
      const double arena_us = arena_stats.mean * 1e6;
      // Median-over-median: robust to a scheduling hiccup poisoning one
      // round (a mean-based ratio flips by whole multiples on smoke
      // round counts).
      const double speedup = bench::median_of(pointer_rounds_s) /
                             bench::median_of(arena_rounds_s);
      std::printf("%-10s %6d %8zu %14.1f %14.1f %8.2fx\n", "", depth,
                  m.tree.node_count(), pointer_us, arena_us, speedup);
      report.add(std::string(c.label) + "/depth" + std::to_string(depth),
                 {{"nodes", double(m.tree.node_count())},
                  {"pointer_us", pointer_us},
                  {"arena_us", arena_us},
                  {"speedup", speedup},
                  {"p50_us", arena_stats.p50_us},
                  {"p95_us", arena_stats.p95_us},
                  {"p99_us", arena_stats.p99_us}});
      if (c.budget != kNoBudget && depth >= 12) {
        gate_seen = true;
        if (speedup < 2.0) gate_ok = false;
      }
    }
    std::printf("\n");
  }

  const char* cgd_label = "cgd(L=0.4·D)";
  std::printf("%-13s %3s %8s %14s %14s %9s\n", cgd_label, "depth", "nodes",
              "full(us)", "pruned(us)", "speedup");
  for (const int depth : cgd_depths) {
    Rng rng(0xA7E7Aull * 131 + static_cast<std::uint64_t>(depth));
    const CdAt m = complete_binary_model(rng, depth);
    const Front2d front = cdpf_bottom_up(m);
    const double l = 0.4 * front[front.size() - 1].value.damage;
    if (!same_answer(cgd_bottom_up(m, l), full_front_cgd(m, l))) {
      std::fprintf(stderr, "MISMATCH: pruned CgD != full-front CgD "
                           "(depth %d)\n", depth);
      return 1;
    }
    std::vector<double> full_rounds_s, pruned_rounds_s;
    for (std::size_t round = 0; round < rounds; ++round) {
      OptAttack out;
      full_rounds_s.push_back(
          bench::time_once([&] { out = full_front_cgd(m, l); }));
      pruned_rounds_s.push_back(
          bench::time_once([&] { out = cgd_bottom_up(m, l); }));
    }
    const bench::Stats full_stats = bench::stats_of(full_rounds_s);
    const bench::Stats pruned_stats = bench::stats_of(pruned_rounds_s);
    const double speedup = bench::median_of(full_rounds_s) /
                           bench::median_of(pruned_rounds_s);
    std::printf("%-13s %3d %8zu %14.1f %14.1f %8.2fx\n", "", depth,
                m.tree.node_count(), full_stats.mean * 1e6,
                pruned_stats.mean * 1e6, speedup);
    report.add(std::string(cgd_label) + "/depth" + std::to_string(depth),
               {{"nodes", double(m.tree.node_count())},
                {"full_us", full_stats.mean * 1e6},
                {"pruned_us", pruned_stats.mean * 1e6},
                {"speedup", speedup},
                {"p50_us", pruned_stats.p50_us},
                {"p95_us", pruned_stats.p95_us},
                {"p99_us", pruned_stats.p99_us}});
  }
  std::printf("\n");

  const bool pass = gate_seen && gate_ok;
  std::printf(
      "gate: arena sweep >= 2x over the pointer sweep on depth-12+ budgeted "
      "tree solves: %s\n",
      pass ? "PASS" : "FAIL");
  report.write(bench::flag_value(argc, argv, "--json"));
  return pass ? 0 : 1;
}
