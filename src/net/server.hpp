#pragma once
/// \file server.hpp
/// net::Server — the one accept loop of the serving stack: multi-client
/// TCP, raw JSON lines or minimal HTTP/1.1.
///
/// Architecture: one blocking accept loop (poll over the listen socket
/// and a self-pipe), one thread per connection, each running the
/// server's per-connection function on the accepted socket.  The
/// Dispatcher constructor's function is the transport-agnostic serving
/// core (api::serve_lines) over a TcpLineTransport or HttpTransport,
/// against one shared, thread-safe api::Dispatcher — so all
/// connections hit the same caches, sessions, and metrics registry.
/// Per-connection pipelining, queue bounds, and line caps come from
/// api::JsonServeOptions exactly as on the stdin transport; HTTP
/// connections are forced synchronous (HTTP/1.1 responses must be
/// ordered).  net::Router brings its own function: the same serving
/// core with its forwarding switch as the dispatch callable.
///
/// Capacity: at `max_conns` open connections a new client is answered
/// with one typed `capacity` error line (HTTP: 503 + the same JSON
/// body) and closed — counted in atcd_net_rejected_total, never
/// silently dropped.
///
/// Graceful drain (SIGTERM/SIGINT via install_signal_handlers(), or
/// request_drain() programmatically): the listen socket closes, every
/// open connection gets `::shutdown(SHUT_RD)` — its reader sees EOF,
/// finishes the requests already in flight, and writes the structured
/// shutdown response as its final line — and wait() returns once the
/// last connection thread has exited.  The server owns each connection's
/// fd and deregisters it before closing it, so a drain never shuts down
/// a recycled fd number.  The signal handler itself only writes one
/// byte to a self-pipe (async-signal-safe); all real work happens on
/// the accept thread.
///
/// Instruments (in the registry the server was given):
///   atcd_net_accepted_total / atcd_net_rejected_total
///   atcd_net_bytes_read_total / atcd_net_bytes_written_total
///   atcd_net_write_errors_total   (from the serving core)
///   atcd_net_connections          (gauge: currently open)
///   atcd_net_connection_requests  (histogram: requests per connection,
///                                  recorded at connection close)

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/server.hpp"
#include "net/socket.hpp"

namespace atcd::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port().
  std::uint16_t port = 0;
  /// Serve HTTP/1.1 (POST /api/v1 + GET /healthz, /metrics) instead of
  /// raw JSON lines.
  bool http = false;
  /// Open-connection cap; further clients get a typed capacity
  /// rejection.
  std::size_t max_conns = 64;
  int backlog = 64;
  /// Per-connection serving options (pipelining depth, line cap,
  /// timing) — the same knobs as the stdin transport.
  api::JsonServeOptions serve;
};

/// Raw JSON-lines transport over a borrowed socket: the serving core's
/// lines map 1:1 onto the socket's lines.
class TcpLineTransport final : public api::LineTransport {
 public:
  explicit TcpLineTransport(BufferedFd& io) : io_(io) {}

  ReadStatus read_line(std::string& line, std::size_t max_bytes) override {
    return io_.read_line(line, max_bytes);
  }
  bool write_line(const std::string& line) override;

 private:
  BufferedFd& io_;
  std::string buf_;
};

class Server {
 public:
  /// Serves one accepted connection on its own thread and returns the
  /// requests it handled.  The server keeps the fd open until it
  /// returns.
  using ConnectionFn = std::function<std::size_t(BufferedFd&)>;

  /// Runs \p serve on every accepted connection; the server's
  /// instruments live in \p metrics.  The server itself ignores
  /// options.serve: \p serve applies the line options it needs.
  Server(obs::Registry& metrics, ServerOptions options, ConnectionFn serve);

  /// JSON lines (or HTTP with options.http) through api::serve_lines
  /// against \p dispatcher, counting in its registry.
  Server(api::Dispatcher& dispatcher, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop.  False + \p error on
  /// failure (port in use, bad address, ...).
  bool start(std::string* error);

  /// The bound port (after start(); resolves ephemeral binds).
  std::uint16_t port() const { return port_; }

  /// Begins a graceful drain: stop accepting, EOF every open
  /// connection's read side, let in-flight requests finish.  Safe to
  /// call from any thread and more than once; the signal handler path
  /// reduces to exactly this.
  void request_drain();

  /// Blocks until the drain completes and every connection thread has
  /// exited.  (request_drain() + wait() == orderly stop.)
  void wait();

  /// Routes SIGTERM/SIGINT to request_drain() of this server (one
  /// server per process owns the handlers; last call wins).
  void install_signal_handlers();

  /// Solve/resolve/analyze requests handled across all closed
  /// connections (live connections report at close).
  std::uint64_t handled() const { return handled_.load(); }

  /// Connections currently open.
  std::size_t open_connections() const;

 private:
  void accept_loop();
  void connection_main(std::uint64_t id, Fd fd);
  void reject(Fd fd);
  void reap_finished();

  obs::Registry& metrics_;
  ServerOptions options_;
  ConnectionFn serve_;

  Fd listen_fd_;
  Fd pipe_rd_, pipe_wr_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> handled_{0};

  mutable std::mutex conns_mu_;
  std::map<std::uint64_t, int> conn_fds_;  ///< open connections, raw fd view
  std::map<std::uint64_t, std::thread> conn_threads_;
  std::vector<std::uint64_t> finished_;  ///< ids ready to join
  std::uint64_t next_conn_id_ = 0;

  // Registry instruments, resolved in start().
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* bytes_read_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  obs::Gauge* connections_ = nullptr;
  obs::Histogram* conn_requests_ = nullptr;
};

}  // namespace atcd::net
