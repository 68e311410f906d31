#include "service/service.hpp"

#include "obs/trace.hpp"
#include "service/timing.hpp"

namespace atcd::service {

Request Request::of(engine::Problem p, const CdAt& m, double bound,
                    std::string engine) {
  Request r;
  r.problem = p;
  r.bound = bound;
  r.engine_name = std::move(engine);
  r.det = std::make_shared<CdAt>(m);
  return r;
}

Request Request::of(engine::Problem p, const CdpAt& m, double bound,
                    std::string engine) {
  Request r;
  r.problem = p;
  r.bound = bound;
  r.engine_name = std::move(engine);
  r.prob = std::make_shared<CdpAt>(m);
  return r;
}

Request Request::of_text(engine::Problem p, std::string text, double bound,
                         std::string engine) {
  Request r;
  r.problem = p;
  r.bound = bound;
  r.engine_name = std::move(engine);
  r.model_text = std::move(text);
  return r;
}

SolveService::SolveService() : SolveService(Options{}) {}

namespace {

/// Pre-construction Options normalization: materialize the fallback
/// registry and point both cache configs at the stack's registry, so the
/// cache members (constructed next in the init list) resolve their
/// counters there.
SolveService::Options with_metrics(SolveService::Options o,
                                   std::unique_ptr<obs::Registry>* owned) {
  if (!o.metrics) {
    *owned = std::make_unique<obs::Registry>();
    o.metrics = owned->get();
  }
  o.cache.metrics = o.metrics;
  o.subtree.metrics = o.metrics;
  return o;
}

}  // namespace

SolveService::SolveService(Options options)
    : options_(with_metrics(std::move(options), &owned_metrics_)),
      handle_micros_(&options_.metrics->histogram("atcd_service_handle_micros")),
      cache_(options_.cache),
      subtree_cache_(options_.subtree) {}

Response SolveService::finish(Response resp,
                              const detail::Clock::time_point& t0) {
  resp.micros = detail::micros_since(t0);
  handle_micros_->record(static_cast<std::uint64_t>(resp.micros));
  return resp;
}

engine::SolveResult SolveService::solve(const Request& request) {
  obs::SpanScope span("service.solve");
  engine::Instance in;
  in.problem = request.problem;
  in.det = request.det.get();
  in.prob = request.prob.get();
  in.bound = request.bound;
  in.backend = request.engine_name;
  engine::BatchOptions opt = options_.batch;
  opt.subtree = nullptr;  // subtree fronts live only as long as this sweep
  return engine::solve_one(in, opt);
}

Response SolveService::handle(const Request& request) {
  const auto t0 = detail::Clock::now();
  Response resp;
  resp.problem = request.problem;

  // 1. Materialize the model: passed-in parsed model, or parse the text.
  Request req = request;
  if (!req.det && !req.prob) {
    obs::SpanScope span("service.parse");
    try {
      parse_typed_model(req.model_text, engine::is_probabilistic(req.problem),
                        &req.det, &req.prob);
    } catch (const std::exception& e) {
      resp.result.error = e.what();
      return finish(std::move(resp), t0);
    }
  }
  resp.det = req.det;
  resp.prob = req.prob;

  // 2. Validate the model/problem pairing before touching the cache.
  engine::Instance probe;
  probe.problem = req.problem;
  probe.det = req.det.get();
  probe.prob = req.prob.get();
  probe.bound = req.bound;
  probe.backend = req.engine_name;
  if (std::string err = engine::instance_error(probe); !err.empty()) {
    resp.result.error = std::move(err);
    return finish(std::move(resp), t0);
  }

  // 3. One canonical hash per request; key the cache and coalescing map.
  // make_key() declines (nullopt) for uncacheable instances, e.g. a
  // non-finite bound; those solve directly.
  const auto key = make_key(probe);
  resp.model_hash = key ? key->model
                        : (req.det ? model_fingerprint(*req.det)
                                   : model_fingerprint(*req.prob));

  if (!options_.enable_cache || !key) {
    resp.result = solve(req);
    return finish(std::move(resp), t0);
  }

  {
    obs::SpanScope span("service.cache");
    if (auto cached = cache_.lookup(*key, req.det.get(), req.prob.get())) {
      resp.result = std::move(*cached);
      resp.cache_hit = true;
      return finish(std::move(resp), t0);
    }
  }

  // 4. Coalesce: either join an identical in-flight solve, or lead one.
  // The global lock guards only the map itself; all expensive work
  // (isomorphism deep checks, the cache re-check, solving) runs outside.
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  bool registered = false;  // we own the in-flight map entry for *key
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    const auto it = inflight_.find(*key);
    if (it != inflight_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<InFlight>();
      flight->det = req.det;
      flight->prob = req.prob;
      leader = true;
      registered = inflight_.emplace(*key, flight).second;
    }
  }

  // A leader for this key may have completed (cache insert happens
  // before the map erase) between our first miss and registering, so
  // re-check the cache — now outside the lock, with ourselves already
  // registered so concurrent identical requests coalesce onto us either
  // way.  The first lookup already counted this request's miss.
  if (leader) {
    if (auto cached = cache_.lookup(*key, req.det.get(), req.prob.get(),
                                    /*count_stats=*/false)) {
      resp.result = std::move(*cached);
      resp.cache_hit = true;
      if (registered) {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(*key);
      }
      {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->result = resp.result;
        flight->done = true;
      }
      flight->cv.notify_all();
      return finish(std::move(resp), t0);
    }
  }

  if (!leader) {
    // The flight's model fields are immutable after publication, so the
    // deep check is safe without the lock.  An empty bijection means our
    // key equals a canonically *different* in-flight model — a hash
    // collision; such a request solves independently (and must not wait
    // on, or later erase, the other model's flight).
    const std::vector<NodeId> join_iso =
        flight->det
            ? (req.det ? canonical_isomorphism(*flight->det, *req.det)
                       : std::vector<NodeId>{})
            : (req.prob ? canonical_isomorphism(*flight->prob, *req.prob)
                        : std::vector<NodeId>{});
    if (join_iso.empty()) {
      resp.result = solve(req);
      return finish(std::move(resp), t0);
    }
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    resp.result = flight->result;
    // The leader's witnesses are in *its* submission's BAS indexing;
    // translate them into ours.
    if (resp.result.ok)
      remap_witnesses(flight->det ? flight->det->tree : flight->prob->tree,
                      req.det ? req.det->tree : req.prob->tree, join_iso,
                      &resp.result);
    resp.coalesced = true;
    return finish(std::move(resp), t0);
  }

  resp.result = solve(req);
  if (resp.result.ok) {
    try {
      cache_.insert(*key, req.det, req.prob, resp.result);
    } catch (...) {
      // A failed insert only loses caching; the flight below must still
      // complete or coalesced waiters would block forever.
    }
  }
  if (registered) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(*key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->result = resp.result;
    flight->done = true;
  }
  flight->cv.notify_all();
  return finish(std::move(resp), t0);
}

}  // namespace atcd::service
