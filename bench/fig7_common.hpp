#pragma once
/// Shared machinery for the Fig. 7 benches: generate a random AT suite
/// (Sec. X-D), run a set of engines per AT grouped by ⌊N/10⌋, and print
/// mean times per group plus the Fig. 7d overall statistics.
///
/// Scaling: the paper runs 500 ATs up to N=121 and tolerates hour-long
/// runs (its Fig. 7d maxima are 3917-5619 s).  Defaults here are sized so
/// one bench binary finishes in ~1 minute: smaller suite, per-(group,
/// engine) wall-clock budgets, and per-AT capacity guards.  --full uses
/// the paper's suite dimensions (still with time budgets, raised 10x).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/cdat.hpp"
#include "engine/registry.hpp"
#include "gen/random_at.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace atcd::bench {

struct Fig7Engine {
  std::string name;
  /// Runs the engine; returns false if the model was skipped (capacity).
  std::function<bool(const CdpAt&)> run;
  /// Hard upper bound on |B| for this engine (enumeration guard).
  std::size_t max_bas = 1u << 20;
};

/// A bench's engine line-up entry: a registry name plus an optional
/// tighter |B| cap (the paper caps enumeration below each engine's own
/// capacity guard to keep default runs quick).
struct Fig7EngineSpec {
  std::string name;
  std::size_t max_bas = 1u << 20;
};

struct Fig7Options {
  std::size_t max_n = 60;        // paper: 100
  std::size_t per_size = 2;      // paper: 5
  bool treelike = true;
  std::size_t max_bas = 64;      // decoration/evaluation guard
  double group_budget_s = 4.0;   // per (group, engine) wall-clock budget
  std::uint64_t seed = 2023;
  std::string engine;            // --engine <name>: run only this engine
};

inline Fig7Options fig7_options(int argc, char** argv, bool treelike) {
  Fig7Options opt;
  opt.treelike = treelike;
  opt.engine = flag_value(argc, argv, "--engine");
  if (has_flag(argc, argv, "--full")) {
    opt.max_n = 100;
    opt.per_size = 5;
    opt.group_budget_s = 40.0;
    opt.max_bas = 128;
  } else if (has_flag(argc, argv, "--smoke")) {
    opt.max_n = 30;
    opt.per_size = 1;
    opt.group_budget_s = 1.0;
  }
  return opt;
}

/// Resolves one line-up entry through the engine registry: the returned
/// Fig7Engine runs `problem` via the backend's polymorphic entry points
/// and skips (returns false) models outside the backend's capabilities.
/// Unknown names throw UnsupportedError listing the registered engines —
/// so `--engine <name>` reaches any future backend without bench changes.
inline Fig7Engine fig7_engine(const Fig7EngineSpec& spec,
                              engine::Problem problem) {
  const engine::Backend& b = engine::default_registry().at(spec.name);
  Fig7Engine e;
  e.name = spec.name;
  e.max_bas = std::min(spec.max_bas, b.capabilities().max_bas);
  e.run = [&b, problem](const CdpAt& m) {
    if (engine::is_probabilistic(problem)) {
      if (!b.supports(problem, engine::traits_of(m))) return false;
      (void)b.cedpf(m, {});
    } else {
      const CdAt det = m.deterministic();
      if (!b.supports(problem, engine::traits_of(det))) return false;
      (void)b.cdpf(det, {});
    }
    return true;
  };
  return e;
}

/// Per-engine overall timing statistics (the Fig. 7d table), returned so
/// the bench mains can emit their BENCH_<area>.json reports.
using Fig7Summary = std::vector<std::pair<std::string, Stats>>;

inline Fig7Summary run_fig7(const Fig7Options& opt,
                            const std::vector<Fig7Engine>& engines);

/// Registry-resolved variant: the benches name their engine line-up and
/// --engine <name> narrows the run to a single (possibly non-default)
/// registered backend.
inline Fig7Summary run_fig7(const Fig7Options& opt, engine::Problem problem,
                            std::vector<Fig7EngineSpec> specs) {
  if (!opt.engine.empty()) specs = {{opt.engine}};
  std::vector<Fig7Engine> engines;
  engines.reserve(specs.size());
  for (const auto& s : specs) engines.push_back(fig7_engine(s, problem));
  return run_fig7(opt, engines);
}

inline Fig7Summary run_fig7(const Fig7Options& opt,
                            const std::vector<Fig7Engine>& engines) {
  Rng rng(opt.seed);
  gen::SuiteOptions sopt;
  sopt.max_n = opt.max_n;
  sopt.per_size = opt.per_size;
  sopt.treelike = opt.treelike;
  sopt.max_bas = opt.max_bas;
  const auto suite = gen::make_suite(sopt, rng);
  std::printf("suite: %zu ATs (%s), sizes 1..%zu, %zu per size, seed %llu\n",
              suite.size(), opt.treelike ? "treelike" : "DAG",
              opt.max_n, opt.per_size,
              static_cast<unsigned long long>(opt.seed));
  std::printf("per-(group,engine) budget: %.0fs; capacity-skipped or "
              "budget-cut ATs are excluded from that mean (count shown)\n\n",
              opt.group_budget_s);

  // Group ATs by floor(N/10) as in the paper.
  std::map<std::size_t, std::vector<const gen::SuiteEntry*>> groups;
  for (const auto& e : suite)
    groups[e.tree.node_count() / 10].push_back(&e);

  std::printf("%-8s %-6s", "group", "#ATs");
  for (const auto& e : engines) std::printf(" %16s", e.name.c_str());
  std::printf("\n");

  std::map<std::string, std::vector<double>> overall;
  for (const auto& [g, entries] : groups) {
    std::printf("N=%02zu-%02zu %-6zu", g * 10, g * 10 + 9, entries.size());
    for (const auto& eng : engines) {
      std::vector<double> times;
      double spent = 0.0;
      std::size_t skipped = 0;
      for (const auto* e : entries) {
        if (spent > opt.group_budget_s) {
          ++skipped;
          continue;
        }
        if (e->tree.bas_count() > eng.max_bas) {
          ++skipped;
          continue;
        }
        Rng drng(opt.seed ^ (e->tree.node_count() * 7919));
        const auto m = randomize_decorations(e->tree, drng);
        Timer t;
        bool ok = false;
        try {
          ok = eng.run(m);
        } catch (const CapacityError&) {
          ok = false;
        }
        const double secs = t.seconds();
        spent += secs;
        if (ok) {
          times.push_back(secs);
          overall[eng.name].push_back(secs);
        } else {
          ++skipped;
        }
      }
      if (times.empty())
        std::printf(" %16s", "-");
      else {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%10.4fs(%zu)", stats_of(times).mean,
                      times.size());
        std::printf(" %16s", buf);
      }
      (void)skipped;
    }
    std::printf("\n");
  }

  std::printf("\nOverall statistics (Fig. 7d):\n");
  std::printf("%-16s %8s %10s %10s %10s\n", "engine", "#runs", "min",
              "mean", "max");
  Fig7Summary summary;
  for (const auto& eng : engines) {
    const auto it = overall.find(eng.name);
    if (it == overall.end() || it->second.empty()) {
      std::printf("%-16s %8s\n", eng.name.c_str(), "-");
      summary.emplace_back(eng.name, Stats{});
      continue;
    }
    const auto s = stats_of(it->second);
    std::printf("%-16s %8zu %9.4fs %9.4fs %9.4fs\n", eng.name.c_str(), s.n,
                s.min, s.mean, s.max);
    summary.emplace_back(eng.name, s);
  }
  return summary;
}

}  // namespace atcd::bench
