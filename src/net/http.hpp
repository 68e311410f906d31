#pragma once
/// \file http.hpp
/// Minimal HTTP/1.1 endpoint over the JSON envelope — an
/// api::LineTransport whose "lines" are POST bodies, read from a socket
/// it borrows from net::Server.
///
/// The surface is deliberately tiny (this is a solver, not a web
/// framework):
///
///   POST /api/v1      body = one v1 JSON request envelope
///                     -> application/json, body = the response line
///   GET  /healthz     -> 200 "ok"
///   GET  /metrics     -> Prometheus text exposition of the registry
///
/// The response status maps off the typed ErrorCode (ok -> 200, client
/// errors -> 400/404/413, solver/internal failures -> 500), and the
/// body is byte-identical to the JSON-lines transport's response line —
/// HTTP is a framing, not a second wire format.  Requests on one
/// connection are served strictly in order (HTTP/1.1 pipelining
/// requires ordered responses), so the server runs HTTP connections
/// with a synchronous serving core.  keep-alive is the default; `quit`
/// or `Connection: close` ends the connection after the response.
///
/// Framing errors (bad request line, unknown path, missing
/// Content-Length, oversized body) are answered with a typed status +
/// JSON error body and never crash the connection loop; tests/test_net
/// pins the taxonomy.

#include <cstddef>
#include <string>

#include "api/server.hpp"
#include "net/socket.hpp"

namespace atcd::api {
class Dispatcher;
}  // namespace atcd::api

namespace atcd::net {

class HttpTransport final : public api::LineTransport {
 public:
  /// \p dispatcher is only consulted for GET /metrics (rendering the
  /// registry); every POST flows through the serving core like any
  /// other transport's line.
  HttpTransport(BufferedFd& io, api::Dispatcher& dispatcher)
      : io_(io), dispatcher_(dispatcher) {}

  ReadStatus read_line(std::string& line, std::size_t max_bytes) override;
  bool write_line(const std::string& line) override;

 private:
  /// Writes one framed response; \p close_conn appends Connection: close.
  bool respond(int status, const char* reason, const std::string& content_type,
               const std::string& body, bool close_conn);

  BufferedFd& io_;
  api::Dispatcher& dispatcher_;
  /// True between returning a POST body from read_line and framing its
  /// response in write_line.  The serving core's final shutdown
  /// response arrives with no request outstanding (client EOF / server
  /// drain) and is dropped — there is no HTTP exchange to carry it.
  bool pending_ = false;
  /// Set once the connection must end after the in-flight response
  /// (quit, Connection: close, or a framing error).
  bool close_after_ = false;
};

}  // namespace atcd::net
