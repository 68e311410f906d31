#pragma once
/// \file server.hpp
/// Transport-agnostic JSON-lines serving core, plus the stdin/stdout
/// front-end it was extracted from.
///
/// One request per input line in the v1 envelope
/// (`{"v":1,"id":...,"op":...}`), one response per output line.  With
/// `threads > 1` requests are *pipelined*: a pool of workers dispatches
/// them concurrently and responses are written as they complete —
/// possibly out of order — which is why the envelope carries
/// client-supplied request ids.  Responses to *distinct* requests are
/// byte-independent of the thread count (timing is omitted unless
/// `timing` is set), so sorting them by id yields byte-identical
/// output for any `threads` value; tests/test_api.cpp pins this.  The
/// one scheduling-dependent byte is the "cache" member of *identical*
/// concurrent requests: whether the second of two equal solves reads
/// "hit" or "coalesced" depends on whether it arrived before or after
/// the first completed — the payload values are identical either way.
///
/// The loop ends on EOF or on a `{"op":"quit"}` request; either way the
/// last line written is a structured shutdown response (kind=shutdown,
/// echoing the quit's id when there was one) after all in-flight
/// requests have drained — no silent exits.
///
/// Robustness guarantees (each pinned by a regression test):
///
///  * The pipelining queue is *bounded* (`max_queue`, default twice the
///    worker count): a client that writes faster than the workers drain
///    blocks the reader instead of ballooning server memory.  On a
///    socket transport the block propagates as TCP backpressure.
///  * Input lines are length-capped (`max_line_bytes`): an oversized
///    line is discarded *as it streams in* — never buffered whole — and
///    answered with a typed `capacity` error, after which the loop
///    keeps serving.
///  * Write failures are detected: when the output sink dies (closed
///    socket, broken pipe) the loop stops reading and dispatching
///    instead of solving for nobody, and the failure is counted in the
///    `atcd_net_write_errors_total` registry counter.
///
/// The core loop (serve_lines) speaks to the transport through the
/// two-method LineTransport interface, so the stdin pipe, the TCP
/// server, and the HTTP endpoint (src/net/) all run exactly the same
/// serving code — same pipelining, same caps, same shutdown semantics.
///
/// Blank lines and lines starting with '#' are skipped, so request
/// script files can carry comments.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "api/dispatcher.hpp"

namespace atcd::api::detail {

/// Strips leading/trailing spaces, tabs, and CRs from one framed line —
/// shared by the serving core and the router (src/net/router.cpp).
std::string trim(const std::string& s);

}  // namespace atcd::api::detail

namespace atcd::api {

struct JsonServeOptions {
  /// Worker threads dispatching requests concurrently; 0 or 1 serves
  /// synchronously in arrival order.
  std::size_t threads = 0;
  /// Include per-response wall micros.  Off by default so responses
  /// are byte-identical across runs and thread counts.
  bool timing = false;
  /// Pending-request cap for the pipelined queue; the reader blocks
  /// (backpressure) once this many requests await a worker.  0 picks
  /// the default: twice the worker count.
  std::size_t max_queue = 0;
  /// Longest accepted input line in bytes.  Longer lines are discarded
  /// without full buffering and answered with a typed `capacity` error.
  std::size_t max_line_bytes = 1u << 20;  // 1 MiB
};

/// The serving core's view of a connection: bounded line reads in,
/// whole-line writes out.  Implementations exist for iostreams (below),
/// TCP sockets, and HTTP connections (src/net/).
class LineTransport {
 public:
  enum class ReadStatus {
    Line,     ///< a complete line (without its terminator) was read
    TooLong,  ///< a line exceeded max_bytes; its bytes were discarded
    Eof,      ///< no more input (EOF, peer close, or read error)
  };

  virtual ~LineTransport() = default;

  /// Reads the next line into \p line, accepting at most \p max_bytes
  /// payload bytes.  An overlong line must be *discarded as it streams
  /// in* — never accumulated whole — and reported as TooLong exactly
  /// once.  A partial line at EOF is returned as a Line; the next call
  /// reports Eof.
  virtual ReadStatus read_line(std::string& line, std::size_t max_bytes) = 0;

  /// Writes \p line plus a terminating newline and flushes.  Returns
  /// false when the sink has failed (broken pipe, closed socket); the
  /// serving loop then stops reading and dispatching.
  virtual bool write_line(const std::string& line) = 0;
};

/// LineTransport over a std::istream / std::ostream pair — the stdin
/// transport, and the test seam for the serving core.
class IoStreamTransport final : public LineTransport {
 public:
  IoStreamTransport(std::istream& in, std::ostream& out) : in_(in), out_(out) {}
  ReadStatus read_line(std::string& line, std::size_t max_bytes) override;
  bool write_line(const std::string& line) override;

 private:
  std::istream& in_;
  std::ostream& out_;
  std::vector<char> buf_;
};

/// The transport-agnostic serving core: reads envelope lines from \p t,
/// dispatches (pipelined when options.threads > 1), writes responses
/// back, and always finishes with the structured shutdown response.
/// Returns the number of solve/resolve/analyze requests handled.
std::size_t serve_lines(LineTransport& t, Dispatcher& dispatcher,
                        const JsonServeOptions& options = {});

/// Serves JSON-envelope requests from \p in to \p out until EOF or
/// `quit` — serve_lines over an IoStreamTransport.  Returns the number
/// of solve/resolve/analyze requests handled.
std::size_t serve_json(std::istream& in, std::ostream& out,
                       Dispatcher& dispatcher,
                       const JsonServeOptions& options = {});

}  // namespace atcd::api
