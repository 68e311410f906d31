#pragma once
/// \file router.hpp
/// net::Router — a shard-by-canonical-hash front door over K workers.
///
/// The router runs on a net::Server (its accept loop, connection cap,
/// drain and signal handling) and on the serving core (api::serve_lines:
/// framing, line cap, typed decode errors, quit and the shutdown
/// response), but owns no solver: its dispatch callable forwards every
/// request over net::Client to one of K JSON-lines workers, chosen by
/// the request's *canonical* model hash (service::model_fingerprint).
/// The hash is invariant under node renaming and child reordering, so
/// isomorphic resubmissions of one model — the result cache's whole
/// reason to exist — always land on the same warm shard, and a fleet of
/// K workers behaves like one cache K times the size.
///
/// Routing rules:
///   * solve / open / analyze: canonical hash of the request's model,
///     modulo K.  A model that fails to parse hashes by raw bytes — any
///     shard produces the identical typed error, the choice just has to
///     be deterministic.
///   * batch: routed whole by its first item's model (items share one
///     response, so they cannot be split without reassembly).
///   * edit / resolve / close: pinned to the shard that opened the
///     session.  The router speaks its own session-id space (sequential
///     from 1, exactly like a single dispatcher) and translates ids on
///     both legs, so clients cannot observe K id generators colliding;
///     an unknown id is answered locally with the dispatcher's exact
///     no_such_session error.
///   * stats / metrics: fanned out to every shard and merged — counters
///     and sums add, latency percentiles take the worst shard.  The
///     metrics merge also folds in the router's own registry as one more
///     fleet member, so a fleet counter sums over every process, router
///     included.
///   * quit: answered locally with the structured shutdown response
///     (it ends the *client's* connection, not the fleet).
///
/// Instruments (the router's own registry, exposed through `metrics`):
///   atcd_router_requests_total / atcd_router_forwards_total
///   atcd_router_shard_errors_total
///   and net::Server's atcd_net_* connection instruments.
///
/// Each connection is served synchronously: one in-flight request per
/// downstream connection, so a fast client is backpressured by its
/// slowest shard exactly as the serve-loop queue bound backpressures a
/// single server.  Responses relay as decoded+re-encoded canonical
/// envelopes; since both codecs are canonical, a routed response is
/// byte-identical to the worker's (and, cache disposition aside, to an
/// in-process dispatcher's — suites/golden.suite pins this).

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/api.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"

namespace atcd::net {

/// One worker address.
struct ShardAddress {
  std::string host;
  std::uint16_t port = 0;
};

struct RouterOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port().
  std::uint16_t port = 0;
  /// The worker fleet; at least one.
  std::vector<ShardAddress> shards;
  /// Open-connection cap; further clients get a typed capacity
  /// rejection (same contract as net::Server).
  std::size_t max_conns = 64;
  int backlog = 64;
  /// Longest accepted input line (same cap + typed error as the serve
  /// loop).
  std::size_t max_line_bytes = 1u << 20;  // 1 MiB
  /// Echo per-response wall micros on locally synthesized responses.
  bool timing = false;
};

/// Deterministic shard choice for a model: the canonical
/// (isomorphism-invariant) fingerprint when the model parses, a raw
/// byte hash otherwise.  Exposed for tests and for the suite's router
/// path.
std::uint64_t routing_hash(engine::Problem problem, const std::string& model);

class Router {
 public:
  explicit Router(RouterOptions options);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds, listens, and starts the accept loop.  Fails when no shards
  /// are configured or the listen socket cannot be bound.
  bool start(std::string* error);

  /// The bound port (after start(); resolves ephemeral binds).
  std::uint16_t port() const { return server_.port(); }

  /// Number of configured worker shards.
  std::size_t shard_count() const { return options_.shards.size(); }

  /// Graceful drain, net::Server's: stop accepting, EOF every
  /// connection's read side, finish in-flight requests.
  void request_drain() { server_.request_drain(); }

  /// Blocks until the drain completes.
  void wait() { server_.wait(); }

  /// Routes SIGTERM/SIGINT to request_drain() of this router.
  void install_signal_handlers() { server_.install_signal_handlers(); }

  /// Requests forwarded to shards over the router's lifetime.
  std::uint64_t forwarded() const { return forwards_.value(); }

  /// Solve/resolve/analyze requests handled across closed connections.
  std::uint64_t handled() const { return server_.handled(); }

 private:
  /// Where a router session lives: the shard and the worker's own id.
  struct SessionRoute {
    std::size_t shard = 0;
    std::uint64_t worker_session = 0;
  };

  /// Per-connection forwarding state: one lazy net::Client per shard.
  struct Connection;

  /// Serves one client connection (net::Server's per-connection
  /// function).
  std::size_t serve(BufferedFd& io);

  /// Forwards \p request to \p shard and decodes the worker's reply.
  /// Transport or decode failures come back as typed Internal errors.
  api::Response forward(Connection& conn, std::size_t shard,
                        const api::Request& request);
  /// Full routing switch: the serving core's dispatch callable.
  api::Response route(Connection& conn, api::Request request);
  api::Response merged_stats(Connection& conn, const api::Request& request);
  api::Response merged_metrics(Connection& conn,
                               const api::Request& request);

  RouterOptions options_;
  obs::Registry metrics_;
  obs::Counter& requests_;
  obs::Counter& forwards_;
  obs::Counter& shard_errors_;

  /// Router-global session table: ids are sequential from 1 (the same
  /// id discipline as a single dispatcher's SessionManager).
  std::mutex sessions_mu_;
  std::unordered_map<std::uint64_t, SessionRoute> sessions_;
  std::uint64_t next_session_ = 0;

  /// Declared last: its destructor drains and joins the connection
  /// threads while everything above is still alive.
  Server server_;
};

}  // namespace atcd::net
