#pragma once
/// \file dispatcher.hpp
/// api::Dispatcher — the single execution facade behind every transport.
///
/// The dispatcher owns the SolveService, the SessionManager, and the
/// analysis wiring, and executes exactly the typed operations of
/// api/api.hpp.  The JSON envelope (api/json.hpp + api/server.hpp,
/// served over stdin, TCP, HTTP and the router in src/net/) and the CLI
/// both transcode into api::Request and call dispatch(), so an
/// operation behaves identically no matter how it arrived: same solver
/// results, same error taxonomy, same counters.
///
/// dispatch() is thread-safe and never throws: every failure comes back
/// as a typed ErrorCode response.  Exceptions are classified
/// (ParseError/ModelError/CapacityError/SolverError...) instead of
/// stringified into free-form ok=false messages.
///
/// Stats: the dispatcher is the one source of truth.  Its per-operation
/// counters cover every path, the analyses included.  An analysis's
/// derived solves bind no cache, so the result-cache counters count
/// served solves only, and an analysis cannot evict a served model.
///
/// Observability: every dispatcher-assembled stack shares one
/// obs::Registry (owned here unless Options::metrics injects one).  The
/// op counters and per-op latency histograms are registry instruments,
/// resolved once at construction so the dispatch hot path never takes
/// the registry lock; the `metrics` operation renders the registry, and
/// `"trace": true` requests get a span context for the duration of the
/// dispatch (see obs/trace.hpp).

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <variant>

#include "api/api.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace atcd::api {

class Dispatcher {
 public:
  struct Options {
    service::SolveService::Options service;
    /// Shared instrument registry; null = the dispatcher owns one and
    /// threads it through the service and both caches.
    obs::Registry* metrics = nullptr;
    /// When > 0, any request slower than this logs one structured JSON
    /// object per line on stderr
    /// ({"event":"slow_request","op":...,"id":...,"code":...,
    /// "micros":...}).
    double slow_request_micros = 0.0;
    /// When non-empty, every dispatch runs with an internal span
    /// context and slow requests (>= slow_request_micros; all requests
    /// when that is 0) are exported to this directory as Chrome
    /// trace-event JSON files (atcd_trace_<seq>_<op>.json), loadable in
    /// chrome://tracing / Perfetto.  The directory must exist.  The
    /// response wire bytes are unchanged: Response::trace is still only
    /// attached for `"trace": true` requests.
    std::string trace_dir;
    /// Cap on exported trace files per dispatcher lifetime (sampling
    /// guard so a slow deployment cannot fill a disk).
    std::size_t trace_max_files = 256;
    /// Bench baseline knob: false disables only dispatch()-level
    /// recording (request/error counters, latency histograms, the slow
    /// check), isolating exactly the hot-path cost the api_dispatch
    /// bench gates at < 2%.  Leave true everywhere else.
    bool record_metrics = true;
  };

  /// The dispatcher builds its own service and session manager from
  /// the options.
  Dispatcher();
  explicit Dispatcher(Options options);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Executes one request.  Thread-safe; never throws.  The response
  /// echoes the request id and carries wall micros spent inside.
  Response dispatch(const Request& request);

  /// Unified serving counters (cache + subtree + sessions + dispatcher
  /// ops) — what the `stats` operation reports.
  StatsPayload stats() const;

  DispatchCounters counters() const;

  /// Renders the registry (refreshing the derived gauges first) — the
  /// body of the `metrics` operation and of `--metrics-dump`.
  MetricsPayload metrics_payload() const;

  service::SolveService& service() { return *service_; }
  service::SessionManager& sessions() { return *sessions_; }
  /// The stack's shared instrument registry; never null.
  obs::Registry& metrics() const { return *metrics_; }

 private:
  friend struct OperationHandler;

  Response dispatch_op(const Request& request);
  /// One solve.  A model text that already hit canonically is served
  /// from its exact-bytes cache alias (service/cache.hpp) without
  /// parsing; otherwise it is parsed and handled by the service, and a
  /// canonical hit attaches an alias for the text.
  BatchPayload::Item solve_item(const SolveSpec& spec);
  /// Writes one Chrome trace-event file for a sampled slow request
  /// (trace_dir mode); silently stops at trace_max_files.
  void export_trace(const Request& request, const Response& response,
                    const obs::Trace& trace);
  /// Resolves every instrument pointer out of metrics_ (construction
  /// only; keeps dispatch() off the registry mutex).
  void init_instruments();
  /// Re-derives the exposition-time gauges (cache residency, open
  /// sessions) from their sources of truth.
  void refresh_gauges() const;

  /// Declared before service_: the constructor points the service
  /// options at this registry before building the service.
  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Registry* metrics_ = nullptr;
  std::unique_ptr<service::SolveService> service_;
  std::unique_ptr<service::SessionManager> sessions_;

  double slow_request_micros_ = 0.0;
  bool record_ = true;
  std::string trace_dir_;
  std::size_t trace_max_files_ = 256;
  std::atomic<std::uint64_t> trace_seq_{0};

  // Registry instruments, resolved once by init_instruments().
  obs::Counter* requests_ = nullptr;
  obs::Counter* solves_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* session_opens_ = nullptr;
  obs::Counter* session_edits_ = nullptr;
  obs::Counter* session_resolves_ = nullptr;
  obs::Counter* session_closes_ = nullptr;
  obs::Counter* analyses_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* persist_saves_ = nullptr;
  obs::Counter* persist_loads_ = nullptr;
  obs::Counter* persist_save_errors_ = nullptr;
  obs::Counter* persist_load_errors_ = nullptr;
  /// Last snapshot image touched (saved or loaded) by this dispatcher:
  /// size in bytes and wall-clock seconds, for the atcd_persist_*
  /// gauges.  Kept out of the snapshot image itself so save → load →
  /// save stays byte-identical.
  std::atomic<std::uint64_t> last_snapshot_bytes_{0};
  std::atomic<std::uint64_t> last_snapshot_unix_{0};
  /// All ops: the total of op_micros_, never recorded into directly.
  obs::Histogram* request_micros_ = nullptr;
  /// Per-op latency, indexed by the Operation variant alternative.
  std::array<obs::Histogram*, std::variant_size_v<Operation>> op_micros_{};
};

}  // namespace atcd::api
