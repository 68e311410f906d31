/// model_zoo — scales generated models until each engine falls over,
/// and records where.  Two families:
///
///   * binary/depthD — complete binary AND/OR trees, depth 10..14
///     (1k..16k leaves): the breadth axis, where per-node front sizes
///     and solver scaling dominate.
///   * deep/depthD — depth-15..20 caterpillar trees (a gate chain with
///     one leaf per level, a small binary crown at the bottom): the
///     depth axis, where recursion/propagation depth dominates.
///
/// Every (family size, engine, problem) point first *probes* in a
/// forked child with a hard wall-clock kill — a front blowing up
/// combinatorially (e.g. CDPF Minkowski sums over thousands of leaves)
/// is killed at the deadline instead of running away with time and
/// memory — then, only when the probe survives the budget, times the
/// solve in-process for clean numbers.  The first over-budget,
/// capacity-rejected or killed solve marks the engine fallen-over for
/// that family (completed=0 rows), and larger sizes are skipped — so
/// the bench's own runtime stays bounded while the report pins each
/// engine's frontier.
///
/// Usage: bench_model_zoo [--smoke | --full] [--budget S] [--json <path>]

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/cdat.hpp"
#include "engine/registry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace atcd;

namespace {

/// Complete binary tree of the given depth, alternating OR/AND levels.
AttackTree binary_tree(int depth) {
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
  return t;
}

/// Caterpillar of the given depth: each level is a gate over one fresh
/// leaf and the level below; the bottom is a depth-5 binary crown.  The
/// longest root-to-leaf path is `depth`, with only depth+2^5 leaves —
/// the pure depth-stress shape.
AttackTree caterpillar_tree(int depth) {
  const int crown = 5;
  AttackTree t;
  std::vector<NodeId> level;
  for (std::size_t i = 0; i < (std::size_t{1} << crown); ++i)
    level.push_back(t.add_bas("c" + std::to_string(i)));
  int g = 0;
  for (int d = crown; d > 0; --d) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(t.add_gate(d % 2 ? NodeType::OR : NodeType::AND,
                                "g" + std::to_string(g++),
                                {level[i], level[i + 1]}));
    level = std::move(next);
  }
  NodeId spine = level[0];
  for (int d = crown; d < depth; ++d)
    spine = t.add_gate(d % 2 ? NodeType::AND : NodeType::OR,
                       "s" + std::to_string(d),
                       {t.add_bas("b" + std::to_string(d)), spine});
  t.set_root(spine);
  t.finalize();
  return t;
}

struct ZooProblem {
  engine::Problem problem;
  double bound;
  const char* label;
};

enum class Probe { Ok, Threw, Killed };

/// Runs one solve in a forked child with a hard wall-clock deadline.
/// The child exits 0 on success and 2 on a typed engine Error; a child
/// still alive at the deadline is SIGKILLed (runaway time *and* memory
/// die with it).  Returns Killed on any abnormal end.
Probe probe_solve(const engine::Backend& b, const CdAt& m,
                  const ZooProblem& p, double deadline_s) {
  const pid_t pid = fork();
  if (pid < 0) return Probe::Killed;  // fork failure: treat as fallen over
  if (pid == 0) {
    try {
      if (p.problem == engine::Problem::Cdpf)
        (void)b.cdpf(m, {});
      else
        (void)b.dgc(m, p.bound, {});
    } catch (const Error&) {
      _exit(2);
    } catch (...) {
      _exit(3);
    }
    _exit(0);
  }
  Timer timer;
  int status = 0;
  while (true) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0) return Probe::Killed;
    if (timer.seconds() > deadline_s) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return Probe::Killed;
    }
    usleep(2000);
  }
  if (!WIFEXITED(status)) return Probe::Killed;
  if (WEXITSTATUS(status) == 0) return Probe::Ok;
  if (WEXITSTATUS(status) == 2) return Probe::Threw;
  return Probe::Killed;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bool full = bench::has_flag(argc, argv, "--full");
  double budget_s = full ? 10.0 : (smoke ? 0.5 : 2.0);
  if (const std::string v = bench::flag_value(argc, argv, "--budget");
      !v.empty())
    budget_s = std::atof(v.c_str());
  const std::size_t runs = smoke ? 2 : 3;

  std::vector<int> binary_depths = smoke ? std::vector<int>{8, 10}
                                         : std::vector<int>{10, 12, 14};
  std::vector<int> deep_depths = smoke ? std::vector<int>{15, 18}
                                       : std::vector<int>{15, 18, 20};

  const ZooProblem problems[] = {
      {engine::Problem::Dgc, 15.0, "dgc"},
      {engine::Problem::Cdpf, 0.0, "cdpf"},
  };
  const std::vector<std::string> engines = {"enumerative", "bottom-up",
                                            "bilp"};

  std::printf("model_zoo: engine frontiers on scaled models "
              "(per-solve budget %.1fs, %zu runs per completed point)\n\n",
              budget_s, runs);
  std::printf("%-26s %8s %8s %10s %12s\n", "point", "nodes", "leaves",
              "status", "mean");

  bench::JsonReport report("model_zoo");
  struct Family {
    const char* name;
    std::vector<int> depths;
    AttackTree (*build)(int);
  };
  const Family families[] = {
      {"binary", binary_depths, &binary_tree},
      {"deep", deep_depths, &caterpillar_tree},
  };

  for (const Family& fam : families) {
    for (const ZooProblem& p : problems) {
      // An engine that falls over at one size skips the larger ones in
      // the same (family, problem) column.
      std::vector<bool> dead(engines.size(), false);
      for (const int depth : fam.depths) {
        const AttackTree t = fam.build(depth);
        Rng rng(0x200ull * 131 + static_cast<std::uint64_t>(depth));
        const CdAt m = randomize_decorations(t, rng).deterministic();
        const engine::Traits traits = engine::traits_of(m);

        for (std::size_t e = 0; e < engines.size(); ++e) {
          const std::string point = std::string(fam.name) + "/depth" +
                                    std::to_string(depth) + "/" + engines[e] +
                                    "/" + p.label;
          std::vector<std::pair<std::string, double>> metrics = {
              {"nodes", double(t.node_count())},
              {"leaves", double(t.bas_count())},
              {"depth", double(depth)}};
          const engine::Backend& b = engine::default_registry().at(engines[e]);
          std::string status;
          if (dead[e]) {
            status = "skipped";
          } else if (t.bas_count() > b.capabilities().max_bas) {
            status = "capacity";
            dead[e] = true;
          } else if (!b.supports(p.problem, traits)) {
            status = "unsupported";
          }
          if (!status.empty()) {
            metrics.emplace_back("completed", 0.0);
            std::printf("%-26s %8zu %8zu %10s %12s\n", point.c_str(),
                        t.node_count(), t.bas_count(), status.c_str(), "-");
            report.add(point, std::move(metrics));
            continue;
          }

          std::vector<double> times;
          bool over_budget = false, threw = false;
          // Hard-deadline probe first: a blowing-up solve is killed at
          // the budget instead of running away.
          switch (probe_solve(b, m, p, budget_s)) {
            case Probe::Threw:
              threw = true;
              break;
            case Probe::Killed:
              over_budget = true;
              break;
            case Probe::Ok:
              for (std::size_t r = 0; r < runs && !over_budget; ++r) {
                Timer timer;
                if (p.problem == engine::Problem::Cdpf)
                  (void)b.cdpf(m, {});
                else
                  (void)b.dgc(m, p.bound, {});
                const double secs = timer.seconds();
                times.push_back(secs);
                if (secs > budget_s) over_budget = true;
              }
              break;
          }
          const bool completed = !threw && !over_budget;
          if (!completed) dead[e] = true;

          metrics.emplace_back("completed", completed ? 1.0 : 0.0);
          if (!times.empty()) {
            const bench::Stats s = bench::stats_of(times);
            metrics.emplace_back("mean_s", s.mean);
            metrics.emplace_back("p50_us", s.p50_us);
            metrics.emplace_back("p95_us", s.p95_us);
            metrics.emplace_back("p99_us", s.p99_us);
          }
          char mean_buf[32];
          if (times.empty())
            std::snprintf(mean_buf, sizeof mean_buf, "-");
          else
            std::snprintf(mean_buf, sizeof mean_buf, "%.4fs",
                          bench::stats_of(times).mean);
          std::printf("%-26s %8zu %8zu %10s %12s\n", point.c_str(),
                      t.node_count(), t.bas_count(),
                      completed ? "ok"
                                : (threw ? "capacity" : "over-budget"),
                      mean_buf);
          report.add(point, std::move(metrics));
        }
      }
    }
  }

  report.write(bench::flag_value(argc, argv, "--json"));
  std::printf("\nmodel_zoo is a survey, not a gate: rows with completed=0 "
              "record each engine's frontier\n");
  return 0;
}
