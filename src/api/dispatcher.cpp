#include "api/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <optional>

#include "analysis/portfolio.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/sweep.hpp"
#include "api/json.hpp"
#include "at/structure.hpp"
#include "engine/registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "persist/snapshot.hpp"
#include "service/timing.hpp"
#include "util/parallel.hpp"

namespace atcd::api {
namespace {

/// Maps a library exception onto the closed taxonomy.  Order matters:
/// the most specific classes first, the Error base last.
ErrorCode classify(const std::exception& e) {
  if (dynamic_cast<const ParseError*>(&e)) return ErrorCode::ParseError;
  if (dynamic_cast<const ModelError*>(&e)) return ErrorCode::ModelError;
  if (dynamic_cast<const CapacityError*>(&e)) return ErrorCode::Capacity;
  if (dynamic_cast<const UnsupportedError*>(&e))
    return ErrorCode::SolverFailure;
  if (dynamic_cast<const SolverError*>(&e)) return ErrorCode::SolverFailure;
  if (dynamic_cast<const Error*>(&e)) return ErrorCode::SolverFailure;
  return ErrorCode::Internal;
}

/// Typed per-operation failure used inside the handlers; dispatch_op
/// converts it into an error response.
struct Failure {
  ErrorCode code;
  std::string message;
};

[[noreturn]] void raise(ErrorCode code, std::string message) {
  throw Failure{code, std::move(message)};
}

/// The payload of \p result; \p render(i, witness) renders the i-th
/// witness (front point i, or 0 for the attack).
template <typename Render>
SolvePayload make_payload(engine::Problem problem,
                          const engine::SolveResult& result, const char* cache,
                          service::CanonHash hash, const Render& render) {
  SolvePayload p;
  p.problem = problem;
  p.backend = result.backend;
  p.cache = cache;
  p.hash = hash;
  p.is_front = engine::is_front(problem);
  if (p.is_front) {
    p.points.reserve(result.front.size());
    for (std::size_t i = 0; i < result.front.size(); ++i) {
      const FrontPoint& fp = result.front[i];
      p.points.push_back(
          {fp.value.cost, fp.value.damage, render(i, fp.witness)});
    }
  } else {
    const OptAttack& a = result.attack;
    p.feasible = a.feasible;
    if (a.feasible) {
      p.cost = a.cost;
      p.damage = a.damage;
      p.attack = render(0, a.witness);
    }
  }
  return p;
}

SolvePayload payload_of(const service::Response& r) {
  const AttackTree* tree =
      r.det ? &r.det->tree : r.prob ? &r.prob->tree : nullptr;
  return make_payload(
      r.problem, r.result,
      r.cache_hit ? "hit" : r.coalesced ? "coalesced" : "miss", r.model_hash,
      [&](std::size_t, const Attack& witness) {
        return tree ? attack_to_string(*tree, witness) : witness.to_string();
      });
}

/// An exact-bytes hit: the canonical hit's payload, from the alias's
/// pre-rendered witnesses.
SolvePayload payload_of(const service::ResultCache::ExactAlias& a) {
  return make_payload(a.key.problem, *a.result, "hit", a.key.model,
                      [&](std::size_t i, const Attack&) {
                        return a.witnesses[i];
                      });
}

/// The rendered witnesses of \p p, in make_payload's render order.
std::vector<std::string> witnesses_of(const SolvePayload& p) {
  std::vector<std::string> out;
  if (p.is_front) {
    out.reserve(p.points.size());
    for (const FrontPointPayload& fp : p.points) out.push_back(fp.attack);
  } else if (p.feasible) {
    out.push_back(p.attack);
  }
  return out;
}

/// Parses model text for \p problem into the matching model kind.
/// Throws ParseError / ModelError.
void parse_typed(engine::Problem problem, const std::string& text,
                 std::shared_ptr<const CdAt>* det,
                 std::shared_ptr<const CdpAt>* prob) {
  // Same phase name as the service's own text-parse path: on the API
  // route the dispatcher parses (to classify failures), not the service.
  obs::SpanScope span("service.parse");
  parse_typed_model(text, engine::is_probabilistic(problem), det, prob);
}

}  // namespace

Dispatcher::Dispatcher() : Dispatcher(Options{}) {}

Dispatcher::Dispatcher(Options options)
    : slow_request_micros_(options.slow_request_micros),
      record_(options.record_metrics),
      trace_dir_(std::move(options.trace_dir)),
      trace_max_files_(options.trace_max_files) {
  if (options.metrics) {
    metrics_ = options.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::Registry>();
    metrics_ = owned_metrics_.get();
  }
  // One registry per stack: the service and both caches instrument the
  // same home the dispatcher exposes through the `metrics` op.
  options.service.metrics = metrics_;
  service_ =
      std::make_unique<service::SolveService>(std::move(options.service));
  sessions_ = std::make_unique<service::SessionManager>();
  init_instruments();
}

void Dispatcher::init_instruments() {
  requests_ = &metrics_->counter("atcd_api_requests_total");
  solves_ = &metrics_->counter("atcd_api_solves_total");
  batches_ = &metrics_->counter("atcd_api_batches_total");
  session_opens_ = &metrics_->counter("atcd_api_session_opens_total");
  session_edits_ = &metrics_->counter("atcd_api_session_edits_total");
  session_resolves_ = &metrics_->counter("atcd_api_session_resolves_total");
  session_closes_ = &metrics_->counter("atcd_api_session_closes_total");
  analyses_ = &metrics_->counter("atcd_api_analyses_total");
  errors_ = &metrics_->counter("atcd_api_errors_total");
  persist_saves_ = &metrics_->counter("atcd_persist_saves_total");
  persist_loads_ = &metrics_->counter("atcd_persist_loads_total");
  persist_save_errors_ = &metrics_->counter("atcd_persist_save_errors_total");
  persist_load_errors_ = &metrics_->counter("atcd_persist_load_errors_total");
  request_micros_ = &metrics_->histogram("atcd_api_request_micros");
  for (std::size_t i = 0; i < op_micros_.size(); ++i) {
    op_micros_[i] = &metrics_->histogram(
        std::string("atcd_api_request_micros_") + kOpNames[i]);
    request_micros_->include(*op_micros_[i]);
  }
}

void Dispatcher::refresh_gauges() const {
  const auto c = service_->cache().stats();
  metrics_->gauge("atcd_result_cache_entries")
      .set(static_cast<double>(c.entries));
  metrics_->gauge("atcd_result_cache_bytes").set(static_cast<double>(c.bytes));
  const auto sc = service_->subtree_cache().stats();
  metrics_->gauge("atcd_subtree_cache_entries")
      .set(static_cast<double>(sc.entries));
  metrics_->gauge("atcd_subtree_cache_bytes")
      .set(static_cast<double>(sc.bytes));
  metrics_->gauge("atcd_sessions_active")
      .set(static_cast<double>(sessions_->size()));
  // Warm-restart health: size of the last snapshot image touched and
  // its age.  Both stay 0 until a save or load happens.
  const std::uint64_t snap_bytes =
      last_snapshot_bytes_.load(std::memory_order_relaxed);
  const std::uint64_t snap_unix =
      last_snapshot_unix_.load(std::memory_order_relaxed);
  metrics_->gauge("atcd_persist_snapshot_bytes")
      .set(static_cast<double>(snap_bytes));
  double age = 0.0;
  if (snap_unix != 0) {
    const auto now = std::chrono::duration_cast<std::chrono::seconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
    age = std::max(0.0, static_cast<double>(now) -
                            static_cast<double>(snap_unix));
  }
  metrics_->gauge("atcd_persist_snapshot_age_seconds").set(age);
}

MetricsPayload Dispatcher::metrics_payload() const {
  refresh_gauges();
  MetricsPayload p;
  p.json = metrics_->to_json();
  p.text = metrics_->to_prometheus();
  return p;
}

DispatchCounters Dispatcher::counters() const {
  DispatchCounters c;
  c.requests = requests_->value();
  c.solves = solves_->value();
  c.batches = batches_->value();
  c.session_opens = session_opens_->value();
  c.session_edits = session_edits_->value();
  c.session_resolves = session_resolves_->value();
  c.session_closes = session_closes_->value();
  c.analyses = analyses_->value();
  c.errors = errors_->value();
  return c;
}

StatsPayload Dispatcher::stats() const {
  StatsPayload s;
  s.cache = service_->cache().stats();
  s.subtree = service_->subtree_cache().stats();
  s.sessions = sessions_->size();
  s.api = counters();
  s.latency.count = request_micros_->count();
  s.latency.sum_micros = request_micros_->sum();
  s.latency.p50 = request_micros_->percentile(0.50);
  s.latency.p95 = request_micros_->percentile(0.95);
  s.latency.p99 = request_micros_->percentile(0.99);
  s.persist.saves = persist_saves_->value();
  s.persist.loads = persist_loads_->value();
  s.persist.save_errors = persist_save_errors_->value();
  s.persist.load_errors = persist_load_errors_->value();
  s.persist.snapshot_bytes =
      last_snapshot_bytes_.load(std::memory_order_relaxed);
  return s;
}

/// Checks an explicit engine name against the service's registry so a
/// typo is an InvalidArgument, not a downstream solver failure.
namespace {
void check_engine(const service::SolveService& svc,
                  const std::string& engine_name) {
  if (engine_name.empty()) return;
  const engine::Registry* reg = svc.options().batch.registry
                                    ? svc.options().batch.registry
                                    : &engine::default_registry();
  if (!reg->find(engine_name))
    raise(ErrorCode::InvalidArgument,
          "unknown engine '" + engine_name + "' (see the engines listing)");
}
}  // namespace

namespace {

/// Semantic argument validation shared by every transport.  The wire
/// codecs are stricter (they reject non-finite bounds outright); the
/// dispatcher enforces the invariants that would otherwise produce
/// garbage results, so CLI and programmatic api::Request callers
/// cannot drift from the wire transports.  NaN is always rejected;
/// +/-infinity stays legal for solve bounds (an unbounded budget is a
/// meaningful DgC instance, and the cache simply declines such keys).
void check_bound(double bound, bool has_bound) {
  if (has_bound && std::isnan(bound))
    raise(ErrorCode::InvalidArgument, "bad bound (must not be NaN)");
}

}  // namespace

BatchPayload::Item Dispatcher::solve_item(const SolveSpec& spec) {
  BatchPayload::Item item;
  try {
    check_engine(*service_, spec.engine);
    check_bound(spec.bound, spec.has_bound);
    // Exact-bytes probe: a text that already hit canonically under the
    // same (problem, bound, engine) is served without parsing.
    const bool cached = service_->options().enable_cache;
    if (cached) {
      obs::SpanScope span("service.exact");
      if (const auto alias = service_->cache().lookup_exact(
              spec.problem, spec.bound, spec.engine, spec.model)) {
        item.solve = payload_of(*alias);
        return item;
      }
    }
    service::Request sreq;
    sreq.problem = spec.problem;
    sreq.bound = spec.bound;
    sreq.engine_name = spec.engine;
    parse_typed(spec.problem, spec.model, &sreq.det, &sreq.prob);
    const service::Response r = service_->handle(sreq);
    if (!r.result.ok) {
      item.code = ErrorCode::SolverFailure;
      item.error = r.result.error;
      return item;
    }
    item.solve = payload_of(r);
    if (cached && r.cache_hit)
      service_->cache().attach_exact(
          {r.model_hash, spec.problem,
           service::key_bound(spec.problem, spec.bound), spec.engine},
          spec.model, r.result, witnesses_of(item.solve));
  } catch (const Failure& f) {
    item.code = f.code;
    item.error = f.message;
  } catch (const std::exception& e) {
    item.code = classify(e);
    item.error = e.what();
  }
  return item;
}

/// The visitor body of dispatch_op.  Handlers either return a Payload
/// or throw Failure / a library exception; the caller turns both into
/// typed error responses.
struct OperationHandler {
  Dispatcher& d;

  Payload operator()(const SolveRequest& r) {
    d.solves_->add(1);
    BatchPayload::Item item = d.solve_item(r.spec);
    if (item.code != ErrorCode::Ok) raise(item.code, std::move(item.error));
    return std::move(item.solve);
  }

  Payload operator()(const BatchRequest& r) {
    d.batches_->add(1);
    d.solves_->add(r.items.size());
    BatchPayload out;
    out.items.resize(r.items.size());
    // The request's thread count is clamped to the service's analysis
    // cap (atcd_server --threads), then to the hardware, by the shared
    // loop; items are index-aligned, so the bytes never depend on it.
    const std::size_t cap = d.service_->options().batch.threads;
    const std::size_t threads =
        cap && (r.threads == 0 || r.threads > cap) ? cap : r.threads;
    util::for_each_index(r.items.size(), threads,
                         [&](std::size_t, std::size_t i) {
                           out.items[i] = d.solve_item(r.items[i]);
                         });
    return out;
  }

  Payload operator()(const SessionOpenRequest& r) {
    d.session_opens_->add(1);
    check_engine(*d.service_, r.spec.engine);
    check_bound(r.spec.bound, r.spec.has_bound);
    service::Session::Options sopt;
    sopt.problem = r.spec.problem;
    sopt.bound = r.spec.bound;
    sopt.engine_name = r.spec.engine;
    sopt.batch = d.service_->options().batch;
    sopt.metrics = d.metrics_;  // no shared cache: the private memo only
    const std::uint64_t id = d.sessions_->open(
        std::make_unique<service::Session>(r.spec.model, std::move(sopt)));
    return SessionOpenedPayload{id};
  }

  Payload operator()(const SessionEditRequest& r) {
    d.session_edits_->add(1);
    const auto session = d.sessions_->find(r.session);
    if (!session)
      raise(ErrorCode::NoSuchSession,
            "no session " + std::to_string(r.session));
    std::string err;
    switch (r.op) {
      case EditOp::SetCost: err = session->set_cost(r.target, r.value); break;
      case EditOp::SetProb: err = session->set_prob(r.target, r.value); break;
      case EditOp::SetDamage:
        err = session->set_damage(r.target, r.value);
        break;
      case EditOp::ToggleDefense:
        err = session->toggle_defense(r.target);
        break;
      case EditOp::ReplaceSubtree:
        err = session->replace_subtree(r.target, r.model);
        break;
    }
    if (!err.empty()) raise(ErrorCode::InvalidArgument, std::move(err));
    return EditAppliedPayload{};
  }

  Payload operator()(const SessionResolveRequest& r) {
    d.session_resolves_->add(1);
    d.solves_->add(1);
    const auto session = d.sessions_->find(r.session);
    if (!session)
      raise(ErrorCode::NoSuchSession,
            "no session " + std::to_string(r.session));
    const service::Response resp = session->resolve();
    if (!resp.result.ok)
      raise(ErrorCode::SolverFailure, resp.result.error);
    return payload_of(resp);
  }

  Payload operator()(const SessionCloseRequest& r) {
    d.session_closes_->add(1);
    if (!d.sessions_->close(r.session))
      raise(ErrorCode::NoSuchSession,
            "no session " + std::to_string(r.session));
    return SessionClosedPayload{};
  }

  /// Shared analysis knobs.  No cache is bound: each scenario is solved
  /// on its own, so an analysis neither reads nor writes the result
  /// cache the solve path serves from, and holds no subtree fronts past
  /// its own solves.
  analysis::Options analysis_options(engine::Problem problem, double bound,
                                     const std::string& engine_name) {
    check_engine(*d.service_, engine_name);
    analysis::Options aopt;
    aopt.problem = problem;
    aopt.bound = bound;
    aopt.engine_name = engine_name;
    aopt.batch = d.service_->options().batch;
    return aopt;
  }

  Payload operator()(const AnalyzeSweepRequest& r) {
    d.analyses_->add(1);
    if (r.axes.empty())
      raise(ErrorCode::InvalidArgument,
            "analyze sweep needs at least one axis=<spec>");
    check_bound(r.bound, r.has_bound);
    std::vector<analysis::Axis> axes;
    for (const std::string& spec : r.axes) {
      std::string err;
      const auto axis = analysis::parse_axis(spec, &err);
      if (!axis) raise(ErrorCode::InvalidArgument, std::move(err));
      axes.push_back(*axis);
    }
    const analysis::Options aopt =
        analysis_options(r.problem, r.has_bound ? r.bound : 0.0, r.engine);
    std::shared_ptr<const CdAt> det;
    std::shared_ptr<const CdpAt> prob;
    parse_typed(r.problem, r.model, &det, &prob);
    const std::string table =
        det ? analysis::to_table(analysis::sweep(*det, axes, aopt))
            : analysis::to_table(analysis::sweep(*prob, axes, aopt));
    return AnalysisPayload{"sweep", table};
  }

  Payload operator()(const AnalyzeSensitivityRequest& r) {
    d.analyses_->add(1);
    if (!engine::is_front(r.problem))
      raise(ErrorCode::InvalidArgument,
            "analyze sensitivity takes a front problem (cdpf or cedpf)");
    if (r.has_step && !(std::isfinite(r.step) && r.step > 0.0))
      raise(ErrorCode::InvalidArgument, "bad step (must be > 0)");
    analysis::Options aopt = analysis_options(r.problem, 0.0, r.engine);
    if (r.has_step) aopt.sensitivity_step = r.step;
    std::shared_ptr<const CdAt> det;
    std::shared_ptr<const CdpAt> prob;
    parse_typed(r.problem, r.model, &det, &prob);
    const std::string table =
        det ? analysis::to_table(analysis::sensitivity(*det, aopt))
            : analysis::to_table(analysis::sensitivity(*prob, aopt));
    return AnalysisPayload{"sensitivity", table};
  }

  Payload operator()(const AnalyzePortfolioRequest& r) {
    d.analyses_->add(1);
    if (r.problem != engine::Problem::Dgc &&
        r.problem != engine::Problem::Edgc)
      raise(ErrorCode::InvalidArgument, "analyze portfolio takes dgc or edgc");
    if (r.defenses.empty())
      raise(ErrorCode::InvalidArgument,
            "analyze portfolio needs at least one "
            "defense=<name>:<cost>:<bas>");
    // A +infinity budget equals an absent one (unbounded defender);
    // NaN or negative budgets are rejected, never silently clamped.
    if (r.has_budget && !(r.budget >= 0.0))
      raise(ErrorCode::InvalidArgument, "bad budget (must be >= 0)");
    check_bound(r.bound, r.has_bound);
    std::vector<defense::Countermeasure> catalogue;
    for (const std::string& spec : r.defenses) {
      std::string err;
      const auto cm = analysis::parse_countermeasure(spec, &err);
      if (!cm) raise(ErrorCode::InvalidArgument, std::move(err));
      catalogue.push_back(*cm);
    }
    const double budget =
        r.has_budget ? r.budget : std::numeric_limits<double>::infinity();
    // An unbounded attacker is the portfolio default; the clamp to the
    // hardening scale happens inside portfolio().
    const double bound =
        r.has_bound ? r.bound : std::numeric_limits<double>::infinity();
    const analysis::Options aopt = analysis_options(r.problem, bound, r.engine);
    std::shared_ptr<const CdAt> det;
    std::shared_ptr<const CdpAt> prob;
    parse_typed(r.problem, r.model, &det, &prob);
    const std::string table =
        det ? analysis::to_table(
                  analysis::portfolio(*det, catalogue, budget, aopt))
            : analysis::to_table(
                  analysis::portfolio(*prob, catalogue, budget, aopt));
    return AnalysisPayload{"portfolio", table};
  }

  Payload operator()(const StatsRequest&) { return d.stats(); }

  Payload operator()(const MetricsRequest&) { return d.metrics_payload(); }

  Payload operator()(const ShutdownRequest&) {
    // The serving loop fills in its per-connection handled count.
    return ShutdownPayload{0};
  }

  /// Stamps the "last snapshot touched" gauges after a save or load.
  void note_snapshot(const persist::SnapshotInfo& info) {
    d.last_snapshot_bytes_.store(static_cast<std::uint64_t>(info.bytes),
                                 std::memory_order_relaxed);
    const auto now = std::chrono::duration_cast<std::chrono::seconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
    d.last_snapshot_unix_.store(static_cast<std::uint64_t>(now),
                                std::memory_order_relaxed);
  }

  /// Snapshots carry the result cache only.  The subtree section stays
  /// in the format: a save writes it empty, and a load decodes and
  /// CRC-checks it, reports its entry count, and keeps none of it, since
  /// no request reads a service-wide subtree cache.
  Payload operator()(const SnapshotSaveRequest& r) {
    persist::SnapshotInfo info;
    std::string err;
    const service::SubtreeCache no_subtrees;
    if (!persist::save_snapshot(r.path, d.service_->cache(), no_subtrees,
                                &info, &err)) {
      d.persist_save_errors_->add(1);
      raise(ErrorCode::PersistError, std::move(err));
    }
    d.persist_saves_->add(1);
    note_snapshot(info);
    return SnapshotPayload{"save", r.path, info.result_entries,
                           info.subtree_entries, info.bytes};
  }

  Payload operator()(const SnapshotLoadRequest& r) {
    persist::SnapshotInfo info;
    std::string err;
    const persist::LoadStatus status = persist::load_snapshot(
        r.path, &d.service_->cache(), nullptr, &info, &err);
    if (status != persist::LoadStatus::Ok) {
      d.persist_load_errors_->add(1);
      std::string message = persist::to_string(status);
      if (!err.empty()) message += ": " + err;
      raise(ErrorCode::PersistError, std::move(message));
    }
    d.persist_loads_->add(1);
    note_snapshot(info);
    return SnapshotPayload{"load", r.path, info.result_entries,
                           info.subtree_entries, info.bytes};
  }
};

Response Dispatcher::dispatch_op(const Request& request) {
  Response resp;
  resp.id = request.id;
  try {
    OperationHandler handler{*this};
    resp.payload = std::visit(handler, request.op);
  } catch (const Failure& f) {
    resp.code = f.code;
    resp.error = f.message;
  } catch (const std::exception& e) {
    resp.code = classify(e);
    resp.error = e.what();
  } catch (...) {
    resp.code = ErrorCode::Internal;
    resp.error = "unknown exception";
  }
  return resp;
}

Response Dispatcher::dispatch(const Request& request) {
  const auto t0 = service::detail::Clock::now();
  if (record_) requests_->add(1);
  Response resp;
  // trace_dir mode traces every request internally (for slow-request
  // export); only `"trace": true` requests get the trace echoed on the
  // response, so the wire bytes are unchanged by sampling.
  const bool traced = request.trace || !trace_dir_.empty();
  std::optional<obs::Trace> trace;
  if (traced) {
    // Activate a span context for this request only; downstream layers
    // record into it through the thread-local slot, so the untraced
    // path stays untouched (and byte-identical) at any thread count.
    trace.emplace();
    {
      obs::TraceActivation activation(&*trace);
      obs::SpanScope span("dispatch");
      resp = dispatch_op(request);
    }
    if (request.trace) {
      TracePayload tp;
      tp.spans.reserve(trace->spans().size());
      for (const obs::Trace::Span& s : trace->spans())
        tp.spans.push_back({s.name, s.depth, s.start_us, s.dur_us});
      tp.facts = trace->facts();
      resp.trace = std::move(tp);
    }
  } else {
    resp = dispatch_op(request);
  }
  if (record_ && resp.code != ErrorCode::Ok) errors_->add(1);
  resp.micros = service::detail::micros_since(t0);
  const bool slow =
      slow_request_micros_ > 0.0 && resp.micros >= slow_request_micros_;
  if (record_) {
    const auto us = static_cast<std::uint64_t>(resp.micros);
    op_micros_[request.op.index()]->record(us);  // request_micros_ too
    if (slow)
      std::fprintf(stderr,
                   "{\"event\": \"slow_request\", \"op\": %s, \"id\": %s, "
                   "\"code\": %s, \"micros\": %s}\n",
                   json::dump_string(op_name(request.op)).c_str(),
                   json::dump_string(request.id).c_str(),
                   json::dump_string(to_string(resp.code)).c_str(),
                   json::dump_number(resp.micros).c_str());
  }
  if (!trace_dir_.empty() && (slow || slow_request_micros_ <= 0.0))
    export_trace(request, resp, *trace);
  return resp;
}

void Dispatcher::export_trace(const Request& request, const Response& response,
                              const obs::Trace& trace) {
  if (trace_seq_.load(std::memory_order_relaxed) >= trace_max_files_) return;
  const std::uint64_t seq =
      trace_seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq >= trace_max_files_) return;
  const std::string path = trace_dir_ + "/atcd_trace_" + std::to_string(seq) +
                           "_" + op_name(request.op) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;  // sampling is best-effort; serving never fails on it
  const std::string label = std::string("atcd ") + op_name(request.op) +
                            " (" + to_string(response.code) + ")";
  const std::string body = obs::chrome_trace_json(trace, label);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

}  // namespace atcd::api
