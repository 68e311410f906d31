#include "net/router.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "api/json.hpp"
#include "core/cdat.hpp"
#include "net/client.hpp"
#include "service/canon.hpp"

namespace atcd::net {

namespace {

/// The listener half of the router's options (Router::serve applies the
/// line half).
ServerOptions server_options(const RouterOptions& r) {
  ServerOptions s;
  s.host = r.host;
  s.port = r.port;
  s.max_conns = r.max_conns;
  s.backlog = r.backlog;
  return s;
}

/// Reads a registry's JSON exposition (obs::Exposition::to_json) back
/// into its values; members of the wrong kind are skipped.
obs::Exposition read_exposition(const api::json::Value& doc) {
  using Kind = api::json::Value::Kind;
  const auto object = [&](const api::json::Value& v, const char* key) {
    const api::json::Value* o = v.find(key);
    return o && o->kind == Kind::Object ? &o->members : nullptr;
  };
  const auto num = [](const api::json::Value& v, const char* key) {
    const api::json::Value* f = v.find(key);
    return f && f->kind == Kind::Number ? f->number : 0.0;
  };
  obs::Exposition e;
  if (const auto* cs = object(doc, "counters"))
    for (const auto& [name, v] : *cs)
      if (v.kind == Kind::Number)
        e.counters[name] = static_cast<std::uint64_t>(v.number);
  if (const auto* gs = object(doc, "gauges"))
    for (const auto& [name, v] : *gs)
      if (v.kind == Kind::Number) e.gauges[name] = v.number;
  if (const auto* hs = object(doc, "histograms"))
    for (const auto& [name, v] : *hs)
      if (v.kind == Kind::Object)
        e.histograms[name] = {static_cast<std::uint64_t>(num(v, "count")),
                              static_cast<std::uint64_t>(num(v, "sum")),
                              num(v, "p50"), num(v, "p95"), num(v, "p99")};
  return e;
}

}  // namespace

std::uint64_t routing_hash(engine::Problem problem, const std::string& model) {
  try {
    std::shared_ptr<const CdAt> det;
    std::shared_ptr<const CdpAt> prob;
    parse_typed_model(model, engine::is_probabilistic(problem), &det, &prob);
    return prob ? service::model_fingerprint(*prob)
                : service::model_fingerprint(*det);
  } catch (...) {
    // Unparseable/invalid model: every shard produces the identical
    // typed error, so any deterministic choice works — FNV-1a over the
    // raw bytes.
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : model) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return h;
  }
}

/// Per-connection forwarding state: one lazily connected client per
/// shard.  Lockstep request/response means at most one in-flight
/// request per shard per connection — the serve loop's queue bound,
/// expressed as TCP backpressure through the router.
struct Router::Connection {
  Router& router;
  std::vector<std::unique_ptr<Client>> clients;

  explicit Connection(Router& r)
      : router(r), clients(r.options_.shards.size()) {}

  Client* client(std::size_t shard, std::string* error) {
    auto& c = clients[shard];
    if (c && c->valid()) return c.get();
    const ShardAddress& addr = router.options_.shards[shard];
    c = std::make_unique<Client>(addr.host, addr.port, error);
    if (!c->valid()) {
      c.reset();
      return nullptr;
    }
    return c.get();
  }
};

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      requests_(metrics_.counter("atcd_router_requests_total")),
      forwards_(metrics_.counter("atcd_router_forwards_total")),
      shard_errors_(metrics_.counter("atcd_router_shard_errors_total")),
      server_(metrics_, server_options(options_),
              [this](BufferedFd& io) { return serve(io); }) {}

bool Router::start(std::string* error) {
  if (options_.shards.empty()) {
    if (error) *error = "router needs at least one --shard host:port";
    return false;
  }
  return server_.start(error);
}

std::size_t Router::serve(BufferedFd& io) {
  Connection conn(*this);
  TcpLineTransport transport(io);
  // Synchronous (threads = 0): one request in flight per connection.
  api::JsonServeOptions serve;
  serve.max_line_bytes = options_.max_line_bytes;
  serve.timing = options_.timing;
  return api::serve_lines(
      transport,
      [&](const api::Request& request) {
        requests_.add();
        return route(conn, request);
      },
      metrics_, serve);
}

api::Response Router::forward(Connection& conn, std::size_t shard,
                              const api::Request& request) {
  std::string err;
  Client* client = conn.client(shard, &err);
  if (!client) {
    shard_errors_.add();
    return api::error_response(
        request.id, api::ErrorCode::Internal,
        "shard " + std::to_string(shard) + " unreachable: " + err);
  }
  std::string reply;
  if (!client->request(api::encode_request(request), &reply)) {
    // Drop the dead connection so the next request redials.
    conn.clients[shard].reset();
    shard_errors_.add();
    return api::error_response(
        request.id, api::ErrorCode::Internal,
        "shard " + std::to_string(shard) + " connection lost");
  }
  forwards_.add();
  api::Decoded<api::Response> dec = api::decode_response(reply);
  if (dec.code != api::ErrorCode::Ok) {
    shard_errors_.add();
    return api::error_response(
        request.id, api::ErrorCode::Internal,
        "shard " + std::to_string(shard) + ": bad response: " + dec.error);
  }
  return std::move(dec.value);
}

api::Response Router::merged_stats(Connection& conn,
                                   const api::Request& request) {
  api::StatsPayload merged;
  const auto add_cache = [](auto* into, const auto& from) {
    into->hits += from.hits;
    into->misses += from.misses;
    into->insertions += from.insertions;
    into->evictions += from.evictions;
    into->collisions += from.collisions;
    into->entries += from.entries;
    into->bytes += from.bytes;
  };
  for (std::size_t s = 0; s < options_.shards.size(); ++s) {
    api::Response r = forward(conn, s, request);
    if (r.code != api::ErrorCode::Ok) return r;
    const auto* p = std::get_if<api::StatsPayload>(&r.payload);
    if (!p)
      return api::error_response(
          request.id, api::ErrorCode::Internal,
          "shard " + std::to_string(s) + " returned a non-stats payload");
    add_cache(&merged.cache, p->cache);
    add_cache(&merged.subtree, p->subtree);
    merged.sessions += p->sessions;
    merged.api.requests += p->api.requests;
    merged.api.solves += p->api.solves;
    merged.api.batches += p->api.batches;
    merged.api.session_opens += p->api.session_opens;
    merged.api.session_edits += p->api.session_edits;
    merged.api.session_resolves += p->api.session_resolves;
    merged.api.session_closes += p->api.session_closes;
    merged.api.analyses += p->api.analyses;
    merged.api.errors += p->api.errors;
    merged.latency.count += p->latency.count;
    merged.latency.sum_micros += p->latency.sum_micros;
    // Percentiles do not add across shards; report the worst shard.
    merged.latency.p50 = std::max(merged.latency.p50, p->latency.p50);
    merged.latency.p95 = std::max(merged.latency.p95, p->latency.p95);
    merged.latency.p99 = std::max(merged.latency.p99, p->latency.p99);
    merged.persist.saves += p->persist.saves;
    merged.persist.loads += p->persist.loads;
    merged.persist.save_errors += p->persist.save_errors;
    merged.persist.load_errors += p->persist.load_errors;
    merged.persist.snapshot_bytes =
        std::max(merged.persist.snapshot_bytes, p->persist.snapshot_bytes);
  }
  api::Response resp;
  resp.id = request.id;
  resp.payload = std::move(merged);
  return resp;
}

api::Response Router::merged_metrics(Connection& conn,
                                     const api::Request& request) {
  // The router is one more fleet member: its own instruments fold in
  // with every shard's.
  obs::Exposition fleet = metrics_.exposition();
  for (std::size_t s = 0; s < options_.shards.size(); ++s) {
    api::Response r = forward(conn, s, request);
    if (r.code != api::ErrorCode::Ok) return r;
    const auto* p = std::get_if<api::MetricsPayload>(&r.payload);
    if (!p)
      return api::error_response(
          request.id, api::ErrorCode::Internal,
          "shard " + std::to_string(s) + " returned a non-metrics payload");
    api::json::Value doc;
    std::string perr;
    if (!api::json::parse(p->json, &doc, &perr))
      return api::error_response(
          request.id, api::ErrorCode::Internal,
          "shard " + std::to_string(s) + ": bad metrics json: " + perr);
    fleet.merge(read_exposition(doc));
  }

  api::Response resp;
  resp.id = request.id;
  resp.payload = api::MetricsPayload{fleet.to_json(), fleet.to_prometheus()};
  return resp;
}

api::Response Router::route(Connection& conn, api::Request request) {
  const std::size_t n_shards = options_.shards.size();
  const auto by_model = [&](engine::Problem problem,
                            const std::string& model) {
    return static_cast<std::size_t>(routing_hash(problem, model) % n_shards);
  };

  if (const auto* r = std::get_if<api::SolveRequest>(&request.op))
    return forward(conn, by_model(r->spec.problem, r->spec.model), request);
  if (const auto* r = std::get_if<api::BatchRequest>(&request.op)) {
    // A batch shares one response, so it routes whole: by its first
    // item's model (an empty batch can go anywhere).
    const std::size_t shard =
        r->items.empty() ? 0
                         : by_model(r->items[0].problem, r->items[0].model);
    return forward(conn, shard, request);
  }
  if (const auto* r = std::get_if<api::SessionOpenRequest>(&request.op)) {
    const std::size_t shard = by_model(r->spec.problem, r->spec.model);
    api::Response resp = forward(conn, shard, request);
    if (resp.code == api::ErrorCode::Ok)
      if (auto* p = std::get_if<api::SessionOpenedPayload>(&resp.payload)) {
        // Translate the worker's id into the router's own sequential
        // space; the worker id never leaves the router.
        std::lock_guard<std::mutex> lock(sessions_mu_);
        const std::uint64_t id = ++next_session_;
        sessions_.emplace(id, SessionRoute{shard, p->session});
        p->session = id;
      }
    return resp;
  }

  const auto pinned =
      [&](std::uint64_t session) -> std::optional<SessionRoute> {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) return std::nullopt;
    return it->second;
  };
  const auto no_session = [&](std::uint64_t session) {
    // The dispatcher's exact wording, so clients cannot tell a router
    // miss from a worker miss.
    return api::error_response(request.id, api::ErrorCode::NoSuchSession,
                               "no session " + std::to_string(session));
  };

  if (auto* r = std::get_if<api::SessionEditRequest>(&request.op)) {
    const auto at = pinned(r->session);
    if (!at) return no_session(r->session);
    r->session = at->worker_session;
    return forward(conn, at->shard, request);
  }
  if (auto* r = std::get_if<api::SessionResolveRequest>(&request.op)) {
    const auto at = pinned(r->session);
    if (!at) return no_session(r->session);
    r->session = at->worker_session;
    return forward(conn, at->shard, request);
  }
  if (auto* r = std::get_if<api::SessionCloseRequest>(&request.op)) {
    const std::uint64_t router_sid = r->session;
    const auto at = pinned(router_sid);
    if (!at) return no_session(router_sid);
    r->session = at->worker_session;
    api::Response resp = forward(conn, at->shard, request);
    if (resp.code == api::ErrorCode::Ok) {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.erase(router_sid);
    }
    return resp;
  }

  if (const auto* r = std::get_if<api::AnalyzeSweepRequest>(&request.op))
    return forward(conn, by_model(r->problem, r->model), request);
  if (const auto* r =
          std::get_if<api::AnalyzeSensitivityRequest>(&request.op))
    return forward(conn, by_model(r->problem, r->model), request);
  if (const auto* r = std::get_if<api::AnalyzePortfolioRequest>(&request.op))
    return forward(conn, by_model(r->problem, r->model), request);

  if (std::holds_alternative<api::StatsRequest>(request.op))
    return merged_stats(conn, request);
  if (std::holds_alternative<api::MetricsRequest>(request.op))
    return merged_metrics(conn, request);

  // Snapshot ops address one worker's local disk; a fleet-wide file
  // path is ambiguous, so the router declines rather than guesses.
  if (std::holds_alternative<api::SnapshotSaveRequest>(request.op) ||
      std::holds_alternative<api::SnapshotLoadRequest>(request.op))
    return api::error_response(
        request.id, api::ErrorCode::InvalidArgument,
        "snapshot ops are per-worker; run them against a shard directly");

  // Shutdown: the serving core fills in the connection's handled count.
  api::Response resp;
  resp.id = request.id;
  resp.payload = api::ShutdownPayload{0};
  return resp;
}

}  // namespace atcd::net
