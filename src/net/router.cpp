#include "net/router.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <optional>

#include "api/json.hpp"
#include "api/server.hpp"
#include "at/parser.hpp"
#include "service/subtree_cache.hpp"

namespace atcd::net {

namespace {

/// The router's own drain self-pipe (net::Server has its own; a process
/// runs one front door, so last install wins either way).
std::atomic<int> g_router_signal_pipe_wr{-1};

extern "C" void router_drain_signal_handler(int) {
  const int fd = g_router_signal_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char b = 'q';
    [[maybe_unused]] const ssize_t n = ::write(fd, &b, 1);
  }
}

/// Same deterministic number rendering as the registry exposition, so a
/// merged metrics document looks exactly like a single registry's.
std::string fmt_num(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.2e18) {
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.15g", v);
    if (std::strtod(buf, nullptr) != v)
      std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

}  // namespace

std::uint64_t routing_hash(engine::Problem problem, const std::string& model) {
  try {
    ParsedModel parsed = parse_model(model);
    if (engine::is_probabilistic(problem)) {
      CdpAt m;
      m.tree = std::move(parsed.tree);
      m.cost = std::move(parsed.cost);
      m.damage = std::move(parsed.damage);
      m.prob = std::move(parsed.prob);
      m.validate();
      return service::model_fingerprint(m);
    }
    CdAt m;
    m.tree = std::move(parsed.tree);
    m.cost = std::move(parsed.cost);
    m.damage = std::move(parsed.damage);
    m.validate();
    return service::model_fingerprint(m);
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

Router::Router(RouterOptions options, obs::Registry* metrics)
    : options_(std::move(options)) {
  if (metrics) {
    metrics_ = metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::Registry>();
    metrics_ = owned_metrics_.get();
  }
}

Router::~Router() {
  request_drain();
  wait();
}

bool Router::start(std::string* error) {
  if (options_.shards.empty()) {
    if (error) *error = "router needs at least one --shard host:port";
    return false;
  }
  listen_fd_ =
      listen_tcp(options_.host, options_.port, options_.backlog, error);
  if (!listen_fd_.valid()) return false;
  port_ = local_port(listen_fd_.get());

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    if (error) *error = "pipe: cannot create drain self-pipe";
    listen_fd_.reset();
    return false;
  }
  ::fcntl(pipefd[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(pipefd[1], F_SETFD, FD_CLOEXEC);
  pipe_rd_.reset(pipefd[0]);
  pipe_wr_.reset(pipefd[1]);

  accepted_ = &metrics_->counter("atcd_router_accepted_total");
  rejected_ = &metrics_->counter("atcd_router_rejected_total");
  requests_ = &metrics_->counter("atcd_router_requests_total");
  forwards_ = &metrics_->counter("atcd_router_forwards_total");
  shard_errors_ = &metrics_->counter("atcd_router_shard_errors_total");

  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Router::request_drain() {
  if (!pipe_wr_.valid()) return;
  const char b = 'q';
  [[maybe_unused]] const ssize_t n = ::write(pipe_wr_.get(), &b, 1);
}

void Router::install_signal_handlers() {
  g_router_signal_pipe_wr.store(pipe_wr_.get(), std::memory_order_relaxed);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = router_drain_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void Router::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void Router::reject(Fd fd) {
  rejected_->add();
  BufferedFd io(std::move(fd));
  io.write_all(
      api::encode_response(
          api::error_response(
              "", api::ErrorCode::Capacity,
              "connection limit reached (max " +
                  std::to_string(options_.max_conns) + ")"),
          false) +
      "\n");
}

void Router::accept_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_.get(), POLLIN, 0},
                     {pipe_rd_.get(), POLLIN, 0}};
    const int rc = ::poll(fds, 2, 250);
    reap_finished();
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) break;  // drain requested
    if (!(fds[0].revents & POLLIN)) continue;

    Fd conn(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!conn.valid()) continue;
    set_nodelay(conn.get());

    std::uint64_t id;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conn_fds_.size() >= options_.max_conns) {
        id = 0;
      } else {
        id = ++next_conn_id_;
        conn_fds_.emplace(id, conn.get());
      }
    }
    if (id == 0) {
      reject(std::move(conn));
      continue;
    }
    accepted_->add();
    std::thread th([this, id, fd = std::move(conn)]() mutable {
      connection_main(id, std::move(fd));
    });
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn_threads_.emplace(id, std::move(th));
    }
  }

  listen_fd_.reset();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  while (true) {
    std::map<std::uint64_t, std::thread> remaining;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      remaining.swap(conn_threads_);
      finished_.clear();
    }
    if (remaining.empty()) break;
    for (auto& [id, th] : remaining)
      if (th.joinable()) th.join();
  }
}

void Router::reap_finished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = finished_.begin(); it != finished_.end();) {
      auto t = conn_threads_.find(*it);
      if (t != conn_threads_.end()) {
        done.push_back(std::move(t->second));
        conn_threads_.erase(t);
        it = finished_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& th : done)
    if (th.joinable()) th.join();
}

api::Response Router::forward(Connection& conn, std::size_t shard,
                              const api::Request& request) {
  std::string err;
  Client* client = conn.client(shard, &err);
  if (!client) {
    shard_errors_->add(1);
    return api::error_response(
        request.id, api::ErrorCode::Internal,
        "shard " + std::to_string(shard) + " unreachable: " + err);
  }
  std::string reply;
  if (!client->request(api::encode_request(request), &reply)) {
    // Drop the dead connection so the next request redials.
    conn.clients[shard].reset();
    shard_errors_->add(1);
    return api::error_response(
        request.id, api::ErrorCode::Internal,
        "shard " + std::to_string(shard) + " connection lost");
  }
  forwards_->add(1);
  forwarded_.fetch_add(1);
  api::Decoded<api::Response> dec = api::decode_response(reply);
  if (dec.code != api::ErrorCode::Ok) {
    shard_errors_->add(1);
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
  struct HistAgg {
    std::uint64_t count = 0, sum = 0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistAgg> hists;

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
    if (const api::json::Value* cs = doc.find("counters");
        cs && cs->kind == api::json::Value::Kind::Object)
      for (const auto& [name, v] : cs->members)
        if (v.kind == api::json::Value::Kind::Number)
          counters[name] += static_cast<std::uint64_t>(v.number);
    if (const api::json::Value* gs = doc.find("gauges");
        gs && gs->kind == api::json::Value::Kind::Object)
      for (const auto& [name, v] : gs->members)
        if (v.kind == api::json::Value::Kind::Number) gauges[name] += v.number;
    if (const api::json::Value* hs = doc.find("histograms");
        hs && hs->kind == api::json::Value::Kind::Object)
      for (const auto& [name, v] : hs->members) {
        if (v.kind != api::json::Value::Kind::Object) continue;
        HistAgg& h = hists[name];
        const auto num = [&](const char* key) {
          const api::json::Value* f = v.find(key);
          return f && f->kind == api::json::Value::Kind::Number ? f->number
                                                                : 0.0;
        };
        h.count += static_cast<std::uint64_t>(num("count"));
        h.sum += static_cast<std::uint64_t>(num("sum"));
        h.p50 = std::max(h.p50, num("p50"));
        h.p95 = std::max(h.p95, num("p95"));
        h.p99 = std::max(h.p99, num("p99"));
      }
  }

  // Render the merged fleet view in exactly the registry's canonical
  // shapes (obs::Registry::to_json / to_prometheus), so scrapers cannot
  // tell a router from a single server.
  api::MetricsPayload merged;
  merged.json = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) merged.json += ',';
    first = false;
    merged.json += '"' + name + "\":" + fmt_u64(v);
  }
  merged.json += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) merged.json += ',';
    first = false;
    merged.json += '"' + name + "\":" + fmt_num(v);
  }
  merged.json += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : hists) {
    if (!first) merged.json += ',';
    first = false;
    merged.json += '"' + name + "\":{\"count\":" + fmt_u64(h.count) +
                   ",\"sum\":" + fmt_u64(h.sum) + ",\"p50\":" +
                   fmt_num(h.p50) + ",\"p95\":" + fmt_num(h.p95) +
                   ",\"p99\":" + fmt_num(h.p99) + '}';
  }
  merged.json += "}}";

  for (const auto& [name, v] : counters)
    merged.text +=
        "# TYPE " + name + " counter\n" + name + ' ' + fmt_u64(v) + '\n';
  for (const auto& [name, v] : gauges)
    merged.text +=
        "# TYPE " + name + " gauge\n" + name + ' ' + fmt_num(v) + '\n';
  for (const auto& [name, h] : hists) {
    merged.text += "# TYPE " + name + " summary\n";
    merged.text += name + "{quantile=\"0.5\"} " + fmt_num(h.p50) + '\n';
    merged.text += name + "{quantile=\"0.95\"} " + fmt_num(h.p95) + '\n';
    merged.text += name + "{quantile=\"0.99\"} " + fmt_num(h.p99) + '\n';
    merged.text += name + "_sum " + fmt_u64(h.sum) + '\n';
    merged.text += name + "_count " + fmt_u64(h.count) + '\n';
  }

  api::Response resp;
  resp.id = request.id;
  resp.payload = std::move(merged);
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

  // Shutdown is answered by the connection loop; anything else landing
  // here is a programming error upstream.
  api::Response resp;
  resp.id = request.id;
  resp.payload = api::ShutdownPayload{0};
  return resp;
}

void Router::connection_main(std::uint64_t id, Fd fd) {
  std::size_t handled = 0;
  {
    BufferedFd io(std::move(fd));
    Connection conn(*this);
    bool sink_ok = true;
    const auto emit = [&](const api::Response& resp) {
      if (!sink_ok) return;
      std::string line = api::encode_response(resp, options_.timing);
      line.push_back('\n');
      sink_ok = io.write_all(line);
    };

    std::string quit_id;
    std::string raw;
    while (sink_ok) {
      const BufferedFd::ReadStatus status =
          io.read_line(raw, options_.max_line_bytes);
      if (status == BufferedFd::ReadStatus::Eof) break;
      if (status == BufferedFd::ReadStatus::TooLong) {
        emit(api::error_response(
            "", api::ErrorCode::Capacity,
            "input line exceeds " + std::to_string(options_.max_line_bytes) +
                " bytes"));
        continue;
      }
      const std::string line = api::detail::trim(raw);
      if (line.empty() || line[0] == '#') continue;
      api::Decoded<api::Request> dec = api::decode_request(line);
      requests_->add(1);
      if (dec.code != api::ErrorCode::Ok) {
        emit(api::error_response(dec.value.id, dec.code, dec.error));
        continue;
      }
      if (std::holds_alternative<api::ShutdownRequest>(dec.value.op)) {
        quit_id = dec.value.id;
        break;
      }
      const api::Request req = std::move(dec.value);
      const api::Response resp = route(conn, req);
      handled += api::handled_increment(req, resp);
      emit(resp);
    }

    // The structured shutdown response, exactly like the serve loop:
    // the last line a client reads — on quit and on EOF — is always
    // kind=shutdown with the per-connection handled count.
    if (sink_ok) {
      api::Response resp;
      resp.id = quit_id;
      resp.payload = api::ShutdownPayload{handled};
      emit(resp);
    }

    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.erase(id);
  }
  handled_.fetch_add(handled);
  std::lock_guard<std::mutex> lock(conns_mu_);
  finished_.push_back(id);
}

}  // namespace atcd::net
