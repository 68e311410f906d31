/// atcd_cli — command-line front-end for the library's textual model
/// format (at/parser.hpp).
///
/// Every solve and analysis subcommand builds a typed api::Request and
/// runs it through the same api::Dispatcher facade as atcd_server, so
/// the CLI and the server cannot drift: identical solver results,
/// identical error taxonomy.  Exit codes are deterministic, mapped from
/// api::ErrorCode:
///
///   0  success
///   2  usage / invalid argument (unknown problem, engine, bad spec)
///   3  model error (unparseable or structurally invalid model)
///   4  solver failure (unsupported class, capacity, numeric failure)
///
/// Usage:
///   atcd_cli <model-file> info
///   atcd_cli <model-file> cdpf | cedpf          [--engine <name>]
///   atcd_cli <model-file> dgc  <budget>   [--prob] [--engine <name>]
///   atcd_cli <model-file> cgd  <threshold> [--prob] [--engine <name>]
///   atcd_cli <model-file> engines
///   atcd_cli <model-file> dot
///
/// Scenario analyses (src/analysis/; axis spec is
/// <attr>:<node>:<lo>:<hi>:<steps> with <attr> in cost|prob|damage, or
/// defense:<bas>; defense spec is <name>:<cost>:<bas>[+<bas>...]):
///   atcd_cli <model-file> sweep <problem> <axis> [<axis>]
///            [--bound <num>] [--engine <name>]
///   atcd_cli <model-file> sensitivity [--prob] [--step <rel>]
///            [--engine <name>]
///   atcd_cli <model-file> portfolio <defense-budget>
///            --defense <spec> [--defense <spec> ...]
///            [--prob] [--bound <attacker-budget>] [--engine <name>]
///
/// Solve commands additionally accept:
///   --threads N   fan the batch (or the analysis scenarios) out on N
///                 worker threads
///   --repeat K    submit the instance K times as one api batch
///                 request (exercises the service result cache and
///                 request coalescing; prints cache statistics)
///
/// Every dispatcher-backed command additionally accepts:
///   --envelope      print the canonical v1 JSON response line (the
///                   exact bytes the server would send, minus micros)
///                   instead of the human tables — errors included, so
///                   transports can be byte-compared
///   --trace-out F   trace the request and write the recorded span tree
///                   as Chrome trace-event JSON to F (loadable in
///                   chrome://tracing and Perfetto)
///
/// --engine picks a specific backend by registry name (see `engines`);
/// without it the planner selects the paper's Table I method for the
/// model class.
///
/// The model format is one statement per line ('#' comments):
///   bas  <name> [cost=<c>] [damage=<d>] [prob=<p>]
///   or   <name> = <child>, <child>, ... [damage=<d>]
///   and  <name> = <child>, <child>, ... [damage=<d>]
///   root <name>
///
/// A sample model ships in examples/data/factory.atcd.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/dispatcher.hpp"
#include "api/json.hpp"
#include "at/dot.hpp"
#include "at/parser.hpp"
#include "engine/registry.hpp"
#include "obs/trace_export.hpp"
#include "util/timer.hpp"

using namespace atcd;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: atcd_cli <model-file> "
               "(info | cdpf | cedpf | dgc <U> [--prob] | "
               "cgd <L> [--prob] | engines | dot) [--engine <name>]\n"
               "                [--threads N] [--repeat K]\n"
               "       atcd_cli <model-file> sweep <problem> <axis> "
               "[<axis>] [--bound U] [--engine <name>]\n"
               "       atcd_cli <model-file> sensitivity [--prob] "
               "[--step r] [--engine <name>]\n"
               "       atcd_cli <model-file> portfolio <defense-budget> "
               "--defense <spec> ... [--prob] [--bound U]\n"
               "  --engine <name>  solve with a specific backend "
               "(see the `engines` command)\n"
               "  --threads N      solve (or fan scenarios out) on N "
               "worker threads\n"
               "  --repeat K       submit the instance K times as one "
               "batch through the\n"
               "                   service cache (prints cache "
               "statistics)\n"
               "  axis spec: <attr>:<node>:<lo>:<hi>:<steps> "
               "(attr: cost|prob|damage) or defense:<bas>\n"
               "  defense spec: <name>:<cost>:<bas>[+<bas>...]\n"
               "  --metrics-dump   print the metrics registry "
               "(Prometheus text) on stderr at exit\n"
               "  --envelope       print the canonical v1 JSON response "
               "line instead of tables\n"
               "  --trace-out F    trace the request and write the span "
               "tree as Chrome\n"
               "                   trace-event JSON to F (open in "
               "chrome://tracing or Perfetto)\n"
               "exit codes: 0 ok, 2 usage, 3 model error, 4 solver "
               "failure\n");
  return 2;
}

/// The flags that consume the next argument as their value.
bool takes_value(const char* flag) {
  for (const char* f : {"--engine", "--bound", "--step", "--threads",
                        "--repeat", "--defense", "--trace-out"})
    if (std::strcmp(flag, f) == 0) return true;
  return false;
}

/// Arguments not consumed by any --flag: skips every flag and, for the
/// value-taking ones, its value.
std::vector<std::string> positionals(int argc, char** argv, int from) {
  std::vector<std::string> out;
  for (int i = from; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      if (takes_value(argv[i])) ++i;
      continue;
    }
    out.push_back(argv[i]);
  }
  return out;
}

/// --metrics-dump: renders the dispatcher's registry on stderr when the
/// process exits, whatever path it takes — scoped so the exit code of
/// every `return` above it is untouched.
struct MetricsDump {
  const api::Dispatcher* dispatcher = nullptr;
  ~MetricsDump() {
    if (dispatcher)
      std::fputs(dispatcher->metrics_payload().text.c_str(), stderr);
  }
};

/// Reports a failed response on stderr and maps its code to the
/// deterministic exit code (2 usage / 3 model / 4 solver).
int report_error(const api::Response& resp) {
  std::fprintf(stderr, "error: %s\n", resp.error.c_str());
  return api::exit_code(resp.code);
}

void print_solve(const api::SolvePayload& p, const char* damage_col) {
  std::printf("# engine: %s\n", p.backend.c_str());
  if (p.is_front) {
    std::printf("%10s %12s  %s\n", "cost", damage_col, "attack");
    for (const auto& pt : p.points)
      std::printf("%10g %12g  %s\n", pt.cost, pt.damage, pt.attack.c_str());
  } else if (!p.feasible) {
    std::printf("infeasible\n");
  } else {
    std::printf("cost=%g damage=%g attack=%s\n", p.cost, p.damage,
                p.attack.c_str());
  }
}

/// Batch/cache knobs from --threads / --repeat, plus the output mode.
struct RunOptions {
  std::size_t threads = 1;
  std::size_t repeat = 1;
  /// --envelope: print the canonical v1 JSON response line (no micros,
  /// no trace) instead of the human tables, for both success and
  /// failure — what the suite runner byte-compares across transports.
  bool envelope = false;
  /// --trace-out FILE: trace the request and write the recorded span
  /// tree as Chrome trace-event JSON (chrome://tracing / Perfetto).
  std::string trace_out;
};

/// Writes the response's trace block (if any) as a Chrome trace file.
void write_trace_file(const api::Response& resp, const std::string& path) {
  if (!resp.trace) {
    std::fprintf(stderr, "warning: response carries no trace\n");
    return;
  }
  std::vector<obs::ExportSpan> spans;
  spans.reserve(resp.trace->spans.size());
  for (const auto& s : resp.trace->spans)
    spans.push_back({s.name, s.depth, s.start_us, s.dur_us});
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << obs::chrome_trace_json(spans, resp.trace->facts, "atcd_cli");
  if (!out)
    std::fprintf(stderr, "warning: cannot write trace file '%s'\n",
                 path.c_str());
}

/// Envelope mode epilogue: one canonical response line on stdout
/// (trace and micros stripped — the deterministic bytes), exit code
/// still mapped from the error code.
int print_envelope(api::Response resp) {
  const int code = api::exit_code(resp.code);
  resp.trace.reset();
  std::printf("%s\n", api::encode_response(resp, false).c_str());
  return code;
}

/// Runs one solve spec through the dispatcher and prints the result.
/// With --repeat/--threads the spec is fanned out as one api batch
/// request (same service cache + coalescing the server uses), and a
/// summary line reports the batch timing plus cache statistics.
int run(api::Dispatcher& dispatcher, api::SolveSpec spec,
        const char* damage_col, const RunOptions& ro) {
  if (ro.repeat <= 1 && ro.threads <= 1) {
    api::Request req;
    req.op = api::SolveRequest{std::move(spec)};
    req.trace = !ro.trace_out.empty();
    const api::Response resp = dispatcher.dispatch(req);
    if (!ro.trace_out.empty()) write_trace_file(resp, ro.trace_out);
    if (ro.envelope) return print_envelope(resp);
    if (resp.code != api::ErrorCode::Ok) return report_error(resp);
    print_solve(std::get<api::SolvePayload>(resp.payload), damage_col);
    return 0;
  }
  api::BatchRequest batch;
  batch.items.assign(ro.repeat, spec);
  batch.threads = ro.threads;
  api::Request req;
  req.op = std::move(batch);
  req.trace = !ro.trace_out.empty();
  Timer timer;
  const api::Response resp = dispatcher.dispatch(req);
  const double ms = timer.millis();
  if (!ro.trace_out.empty()) write_trace_file(resp, ro.trace_out);
  if (ro.envelope) return print_envelope(resp);
  if (resp.code != api::ErrorCode::Ok) return report_error(resp);
  const auto& items = std::get<api::BatchPayload>(resp.payload).items;
  const auto s = dispatcher.stats().cache;
  std::printf("# batch: %zu requests on %zu threads in %.2f ms "
              "(cache hits=%llu misses=%llu)\n",
              ro.repeat, ro.threads, ms,
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses));
  const auto& first = items.front();
  if (first.code != api::ErrorCode::Ok) {
    std::fprintf(stderr, "error: %s\n", first.error.c_str());
    return api::exit_code(first.code);
  }
  print_solve(first.solve, damage_col);
  return 0;
}

/// Dispatches an analysis request and prints its table.
int run_analysis(api::Dispatcher& dispatcher, api::Request req,
                 const RunOptions& ro) {
  req.trace = !ro.trace_out.empty();
  const api::Response resp = dispatcher.dispatch(req);
  if (!ro.trace_out.empty()) write_trace_file(resp, ro.trace_out);
  if (ro.envelope) return print_envelope(resp);
  if (resp.code != api::ErrorCode::Ok) return report_error(resp);
  std::fputs(std::get<api::AnalysisPayload>(resp.payload).table.c_str(),
             stdout);
  return 0;
}

bool parse_positive_size(const char* s, std::size_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || v == 0) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

/// Strict: the whole of \p s must be a number (no atof-style "abc" = 0);
/// otherwise reports it as \p flag's bad value and returns false.
bool parse_number(const char* flag, const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "error: %s takes a number, got '%s'\n", flag, s);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();

  // The model travels as text through the typed API (the dispatcher
  // parses and classifies failures); info/dot parse locally below.
  std::ifstream file(argv[1]);
  if (!file) {
    std::fprintf(stderr, "error: cannot open model file '%s'\n", argv[1]);
    return 3;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string model_text = buffer.str();

  const std::string cmd = argv[2];
  bool metrics_dump = false;
  bool use_prob = false;
  std::string engine_name;
  RunOptions ro;
  double bound = 0.0;
  bool have_bound = false;
  double step = 0.0;
  bool have_step = false;
  std::vector<std::string> defenses;
  for (int i = 3; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--prob") == 0) use_prob = true;
    if (std::strcmp(flag, "--metrics-dump") == 0) metrics_dump = true;
    if (std::strcmp(flag, "--envelope") == 0) ro.envelope = true;
    if (!takes_value(flag)) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s takes a value\n", flag);
      return usage();
    }
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--trace-out") == 0) ro.trace_out = value;
    if (std::strcmp(flag, "--engine") == 0) engine_name = value;
    if (std::strcmp(flag, "--defense") == 0) defenses.push_back(value);
    if (std::strcmp(flag, "--threads") == 0 &&
        !parse_positive_size(value, &ro.threads))
      return usage();
    if (std::strcmp(flag, "--repeat") == 0 &&
        !parse_positive_size(value, &ro.repeat))
      return usage();
    if (std::strcmp(flag, "--bound") == 0) {
      if (!parse_number(flag, value, &bound)) return usage();
      have_bound = true;
    }
    if (std::strcmp(flag, "--step") == 0) {
      if (!parse_number(flag, value, &step)) return usage();
      have_step = true;
    }
  }

  // One dispatcher per invocation: the same facade the server runs on,
  // with the analysis fan-outs sized by --threads.
  api::Dispatcher::Options dopt;
  dopt.service.batch.threads = ro.threads;
  api::Dispatcher dispatcher(dopt);
  MetricsDump dump{metrics_dump ? &dispatcher : nullptr};

  const auto make_spec = [&](engine::Problem problem, double b,
                             bool has_b) {
    api::SolveSpec spec;
    spec.problem = problem;
    spec.bound = b;
    spec.has_bound = has_b;
    spec.engine = engine_name;
    spec.model = model_text;
    return spec;
  };

  if (cmd == "sweep") {
    const std::vector<std::string> pos = positionals(argc, argv, 3);
    if (pos.size() < 2) return usage();
    const auto problem = api::parse_problem(pos[0]);
    if (!problem) {
      std::fprintf(stderr, "error: unknown problem '%s'\n", pos[0].c_str());
      return 2;
    }
    api::AnalyzeSweepRequest r;
    r.problem = *problem;
    r.axes.assign(pos.begin() + 1, pos.end());
    r.bound = bound;
    r.has_bound = have_bound;
    r.engine = engine_name;
    r.model = model_text;
    api::Request req;
    req.op = std::move(r);
    return run_analysis(dispatcher, std::move(req), ro);
  }
  if (cmd == "sensitivity") {
    api::AnalyzeSensitivityRequest r;
    r.problem = use_prob ? engine::Problem::Cedpf : engine::Problem::Cdpf;
    if (have_step) {
      r.step = step;
      r.has_step = true;
    }
    r.engine = engine_name;
    r.model = model_text;
    api::Request req;
    req.op = std::move(r);
    return run_analysis(dispatcher, std::move(req), ro);
  }
  if (cmd == "portfolio" && argc >= 4) {
    char* end = nullptr;
    const double defense_budget = std::strtod(argv[3], &end);
    if (end == argv[3] || *end != '\0' || !(defense_budget >= 0.0)) {
      std::fprintf(stderr,
                   "error: portfolio takes a numeric defense budget, "
                   "got '%s'\n", argv[3]);
      return 2;
    }
    api::AnalyzePortfolioRequest r;
    r.problem = use_prob ? engine::Problem::Edgc : engine::Problem::Dgc;
    r.defenses = defenses;
    r.budget = defense_budget;
    r.has_budget = true;
    r.bound = bound;
    r.has_bound = have_bound;
    r.engine = engine_name;
    r.model = model_text;
    api::Request req;
    req.op = std::move(r);
    return run_analysis(dispatcher, std::move(req), ro);
  }

  if (cmd == "info" || cmd == "dot") {
    try {
      const auto parsed = parse_model(model_text);
      if (cmd == "dot") {
        std::printf("%s", to_dot(parsed.tree, parsed.cost, parsed.damage,
                                 parsed.prob).c_str());
        return 0;
      }
      std::printf("nodes: %zu (BASs: %zu), edges: %zu, shape: %s\n",
                  parsed.tree.node_count(), parsed.tree.bas_count(),
                  parsed.tree.edge_count(),
                  parsed.tree.is_treelike() ? "treelike" : "DAG");
      double total_damage_sum = 0, total_cost_sum = 0;
      for (double d : parsed.damage) total_damage_sum += d;
      for (double c : parsed.cost) total_cost_sum += c;
      std::printf("total decorated damage: %g, total BAS cost: %g\n",
                  total_damage_sum, total_cost_sum);
      std::printf("root: %s\n",
                  parsed.tree.name(parsed.tree.root()).c_str());
      return 0;
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 3;
    }
  }
  if (cmd == "engines") {
    for (const auto* b : engine::default_registry().all()) {
      const auto c = b->capabilities();
      std::printf("%-12s %s, %s;", b->name(),
                  c.exact ? "exact" : "approximate",
                  c.fronts ? "fronts+single" : "single-objective only");
      std::printf(" classes:%s%s%s%s", c.tree_det ? " tree-det" : "",
                  c.dag_det ? " dag-det" : "", c.tree_prob ? " tree-prob" : "",
                  c.dag_prob ? " dag-prob" : "");
      if (c.additive_only) std::printf(" (additive models only)");
      if (c.max_bas != engine::kNoCap)
        std::printf(" (|B| <= %zu)", c.max_bas);
      std::printf("\n");
    }
    return 0;
  }

  if (cmd == "cdpf")
    return run(dispatcher, make_spec(engine::Problem::Cdpf, 0.0, false),
               "damage", ro);
  if (cmd == "cedpf")
    return run(dispatcher, make_spec(engine::Problem::Cedpf, 0.0, false),
               "E[damage]", ro);
  if (cmd == "dgc" && argc >= 4) {
    const double budget = std::atof(argv[3]);
    return run(dispatcher,
               make_spec(use_prob ? engine::Problem::Edgc
                                  : engine::Problem::Dgc,
                         budget, true),
               use_prob ? "E[damage]" : "damage", ro);
  }
  if (cmd == "cgd" && argc >= 4) {
    const double threshold = std::atof(argv[3]);
    return run(dispatcher,
               make_spec(use_prob ? engine::Problem::Cged
                                  : engine::Problem::Cgd,
                         threshold, true),
               use_prob ? "E[damage]" : "damage", ro);
  }
  return usage();
}
