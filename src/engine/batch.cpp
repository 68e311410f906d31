#include "engine/batch.hpp"

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace atcd::engine {

Instance Instance::of(Problem p, const CdAt& m, double bound,
                      std::string backend) {
  Instance in;
  in.problem = p;
  in.det = &m;
  in.bound = bound;
  in.backend = std::move(backend);
  return in;
}

Instance Instance::of(Problem p, const CdpAt& m, double bound,
                      std::string backend) {
  Instance in;
  in.problem = p;
  in.prob = &m;
  in.bound = bound;
  in.backend = std::move(backend);
  return in;
}

std::string instance_error(const Instance& in) {
  const bool needs_prob = is_probabilistic(in.problem);
  const std::string head = std::string("instance for ") + to_string(in.problem);
  if (in.det && in.prob)
    return head + " sets both a deterministic and a probabilistic model; "
                  "exactly one must be set";
  if (!in.det && !in.prob)
    return head + " lacks a model (neither det nor prob is set)";
  if (needs_prob && !in.prob)
    return head + " lacks a probabilistic model: " + to_string(in.problem) +
           " is probabilistic but the instance carries a deterministic model";
  if (!needs_prob && !in.det)
    return head + " lacks a deterministic model: " + to_string(in.problem) +
           " is deterministic but the instance carries a probabilistic model";
  return {};
}

namespace {

/// Solves one instance under the "engine.solve" span, binding the
/// caller's subtree memo.
SolveResult run_instance(const Instance& in, const Planner& planner,
                         const BatchOptions& opt) {
  obs::SpanScope span("engine.solve");
  SolveContext ctx;
  ctx.subtree = opt.subtree;
  SolveResult out;
  if (std::string err = instance_error(in); !err.empty()) {
    out.error = std::move(err);
    return out;
  }
  const bool needs_prob = is_probabilistic(in.problem);
  const Traits t = needs_prob ? traits_of(*in.prob) : traits_of(*in.det);
  const Backend& b = in.backend.empty()
                         ? planner.plan(in.problem, t)
                         : planner.resolve(in.backend, in.problem, t);
  out.backend = b.name();
  switch (in.problem) {
    case Problem::Cdpf:
      out.front = b.cdpf(*in.det, ctx);
      break;
    case Problem::Dgc:
      out.attack = b.dgc(*in.det, in.bound, ctx);
      break;
    case Problem::Cgd:
      out.attack = b.cgd(*in.det, in.bound, ctx);
      break;
    case Problem::Cedpf:
      out.front = b.cedpf(*in.prob, ctx);
      break;
    case Problem::Edgc:
      out.attack = b.edgc(*in.prob, in.bound, ctx);
      break;
    case Problem::Cged:
      out.attack = b.cged(*in.prob, in.bound, ctx);
      break;
  }
  out.ok = true;
  return out;
}

Planner make_planner(const BatchOptions& opt) {
  const Registry& r = opt.registry ? *opt.registry : default_registry();
  const Policy& p = opt.policy ? *opt.policy : table_one_policy();
  return Planner(r, p);
}

}  // namespace

SolveResult solve_one(const Instance& instance, const BatchOptions& opt) {
  const Planner planner = make_planner(opt);
  try {
    return run_instance(instance, planner, opt);
  } catch (const std::exception& e) {
    SolveResult out;
    out.error = e.what();
    return out;
  }
}

std::vector<SolveResult> solve_all(std::span<const Instance> instances,
                                   const BatchOptions& opt) {
  std::vector<SolveResult> results(instances.size());
  const Planner planner = make_planner(opt);
  util::for_each_index(
      instances.size(), opt.threads, [&](std::size_t, std::size_t i) {
        try {
          results[i] = run_instance(instances[i], planner, opt);
        } catch (const std::exception& e) {
          results[i].ok = false;
          results[i].error = e.what();
        }
      });
  return results;
}

}  // namespace atcd::engine
