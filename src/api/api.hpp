#pragma once
/// \file api.hpp
/// The versioned, typed request/response surface of the library (v1).
///
/// Three entry points accreted around the solve service — `solve`-style
/// text requests, the open/edit/resolve session commands, and the
/// `analyze` commands — each with its own ad-hoc argument handling and
/// free-form `ok=false` error strings.  This header replaces all of
/// them with ONE wire-format-independent model:
///
///   * api::Request  — a closed variant of every operation a client can
///     ask for (solve, batch, session open/edit/resolve/close, the
///     three analyses, stats, shutdown), plus a client-supplied request
///     id echoed on the response so pipelined transports can complete
///     out of order.
///   * api::Response — the echoed id, a closed error taxonomy
///     (api::ErrorCode) instead of string matching, serving metadata
///     (cache disposition, canonical hash, wall micros), and a typed
///     payload variant.
///
/// The one wire format is the versioned JSON envelope (api/json.hpp,
/// `{"v":1,"id":...,"op":...}`), a thin codec over this model that every
/// transport carries.  It and the CLI transcode to exactly these structs
/// and dispatch through the same api::Dispatcher (api/dispatcher.hpp), so
/// the CLI, the server, benches, and any future transport cannot drift:
/// an operation either exists here, typed, or it does not exist.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "engine/backend.hpp"
#include "service/cache.hpp"
#include "service/subtree_cache.hpp"

namespace atcd::api {

/// Wire-format major version of the envelope this header models.
inline constexpr int kVersion = 1;

// ---------------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------------

/// Closed error taxonomy of the v1 API.  Every failure a request can
/// produce maps to exactly one code; the human-readable message rides
/// along in Response::error but clients branch on the code alone.
enum class ErrorCode {
  Ok = 0,
  MalformedRequest,    ///< unparseable envelope (bad JSON, missing v/op)
  UnsupportedVersion,  ///< envelope "v" is not kVersion
  UnknownOperation,    ///< "op" not in the v1 vocabulary
  InvalidArgument,     ///< well-formed request with a bad field (unknown
                       ///< problem/engine, non-finite bound, bad axis or
                       ///< defense spec, bad edit operand, ...)
  ParseError,          ///< the model text was rejected by the parser
  ModelError,          ///< structurally invalid model, or model/problem
                       ///< mismatch (e.g. probabilistic problem on a model
                       ///< without probabilities)
  NoSuchSession,       ///< session id unknown or already closed
  Capacity,            ///< a deliberate capacity guard tripped (portfolio
                       ///< catalogue size, enumeration limits)
  SolverFailure,       ///< the backend ran and failed (unsupported class,
                       ///< numeric failure, infeasibility where required)
  Internal,            ///< unexpected exception; a bug, not a client error
  PersistError,        ///< a cache snapshot could not be saved or loaded
                       ///< (missing/corrupt/foreign file, write failure)
};

/// Stable wire string of a code ("ok", "parse_error", ...).
const char* to_string(ErrorCode code);

/// Inverse of to_string(); nullopt for unknown strings.
std::optional<ErrorCode> parse_error_code(const std::string& name);

/// Deterministic process exit code for CLI front-ends: 0 ok, 2 usage
/// (malformed/unknown/invalid-argument/no-such-session), 3 model
/// (parse/model errors), 4 solver (solver/capacity/internal failures).
int exit_code(ErrorCode code);

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// The common core of a solve-like operation: problem + model text (in
/// the at/parser.hpp format) + optional bound / explicit engine.
/// `has_bound` distinguishes an absent bound from an explicit 0 so
/// encodings round-trip byte-stably.
struct SolveSpec {
  engine::Problem problem = engine::Problem::Cdpf;
  double bound = 0.0;
  bool has_bound = false;
  std::string engine;  ///< explicit engine name; "" = planner's choice
  std::string model;   ///< textual model (at/parser.hpp format)
};

/// One-shot solve through the service (cache + coalescing).
struct SolveRequest {
  SolveSpec spec;
};

/// Several independent solves fanned out over `threads` workers; item
/// results come back index-aligned inside one response.  The dispatcher
/// clamps `threads` to the service's thread cap (atcd_server --threads)
/// when one is set, and always to the hardware concurrency and the item
/// count (util::worker_count), so a request can never start more threads
/// than the host has cores; the response bytes do not depend on it.
struct BatchRequest {
  std::vector<SolveSpec> items;
  std::size_t threads = 0;  ///< 0 = the cap (or hardware), see above
};

/// Opens an incremental edit session (service/session.hpp).
struct SessionOpenRequest {
  SolveSpec spec;
};

/// The closed set of session edit operations.
enum class EditOp { SetCost, SetProb, SetDamage, ToggleDefense, ReplaceSubtree };

const char* to_string(EditOp op);
std::optional<EditOp> parse_edit_op(const std::string& name);

struct SessionEditRequest {
  std::uint64_t session = 0;
  EditOp op = EditOp::SetCost;
  std::string target;   ///< BAS / node name the edit applies to
  double value = 0.0;   ///< SetCost/SetProb/SetDamage operand
  std::string model;    ///< ReplaceSubtree's replacement model text
};

struct SessionResolveRequest {
  std::uint64_t session = 0;
};

struct SessionCloseRequest {
  std::uint64_t session = 0;
};

/// 1D/2D parameter sweep (analysis/sweep.hpp).  Axes are carried as
/// their textual specs (`<attr>:<node>:<lo>:<hi>:<steps>` or
/// `defense:<bas>`) and parsed at dispatch, so requests round-trip
/// losslessly through every codec.
struct AnalyzeSweepRequest {
  engine::Problem problem = engine::Problem::Cdpf;
  std::vector<std::string> axes;
  double bound = 0.0;
  bool has_bound = false;
  std::string engine;
  std::string model;
};

/// Leaf-parameter sensitivity ranking (analysis/sensitivity.hpp);
/// front problems only.
struct AnalyzeSensitivityRequest {
  engine::Problem problem = engine::Problem::Cdpf;
  double step = 0.05;  ///< relative finite-difference step
  bool has_step = false;
  std::string engine;
  std::string model;
};

/// Defense-portfolio optimization (analysis/portfolio.hpp); dgc/edgc
/// only.  Defenses are textual specs (`<name>:<cost>:<bas>[+<bas>...]`).
struct AnalyzePortfolioRequest {
  engine::Problem problem = engine::Problem::Dgc;
  std::vector<std::string> defenses;
  double budget = std::numeric_limits<double>::infinity();
  bool has_budget = false;
  double bound = 0.0;  ///< attacker budget; absent = unbounded
  bool has_bound = false;
  std::string engine;
  std::string model;
};

/// Serving counters: result cache, subtree cache, sessions, dispatcher.
struct StatsRequest {};

/// Full metrics-registry exposition (obs/metrics.hpp): every instrument
/// of the serving stack, rendered as canonical JSON and Prometheus-style
/// text in one response.
struct MetricsRequest {};

/// Orderly end of a connection; the transport answers with a structured
/// shutdown payload instead of going silent.
struct ShutdownRequest {};

/// Writes a snapshot of the serving caches to \c path (src/persist/):
/// versioned, checksummed, atomically renamed into place.  Pairs with
/// SnapshotLoadRequest for warm restarts.
struct SnapshotSaveRequest {
  std::string path;
};

/// Loads a snapshot from \c path into the running caches through their
/// normal insert paths (budgets enforced, LRU order preserved).  A file
/// that is missing, truncated, corrupt, or written by an incompatible
/// format fails with ErrorCode::PersistError and leaves the caches
/// untouched.
struct SnapshotLoadRequest {
  std::string path;
};

using Operation =
    std::variant<SolveRequest, BatchRequest, SessionOpenRequest,
                 SessionEditRequest, SessionResolveRequest,
                 SessionCloseRequest, AnalyzeSweepRequest,
                 AnalyzeSensitivityRequest, AnalyzePortfolioRequest,
                 StatsRequest, MetricsRequest, ShutdownRequest,
                 SnapshotSaveRequest, SnapshotLoadRequest>;

/// Wire name of each operation, indexed by Operation alternative: the one
/// place an op's name is spelled (codec, per-op histograms, op_name()).
inline constexpr const char* kOpNames[] = {
    "solve",         "batch",        "open",      "edit",
    "resolve",       "close",        "sweep",     "sensitivity",
    "portfolio",     "stats",        "metrics",   "quit",
    "snapshot-save", "snapshot-load"};
static_assert(std::size(kOpNames) == std::variant_size_v<Operation>,
              "kOpNames must name every Operation alternative");

/// Stable wire name of an operation ("solve", "batch", "open", ...).
const char* op_name(const Operation& op);

/// The default-constructed operation whose wire name is \p name;
/// nullopt for a name not in kOpNames.
std::optional<Operation> make_operation(std::string_view name);

namespace detail {

/// The default-constructed alternative of \p Variant at the index whose
/// entry of \p names (one per alternative; null = no name) is \p name.
template <class Variant, std::size_t N>
std::optional<Variant> alternative_named(const char* const (&names)[N],
                                         std::string_view name) {
  static_assert(N == std::variant_size_v<Variant>);
  std::optional<Variant> out;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((names[I] && name == names[I] &&
      (out.emplace(std::in_place_index<I>), true)) ||
     ...);
  }(std::make_index_sequence<N>{});
  return out;
}

}  // namespace detail

/// Parses a wire problem name (as printed by engine::to_string):
/// cdpf | dgc | cgd | cedpf | edgc | cged.
std::optional<engine::Problem> parse_problem(const std::string& name);

struct Request {
  /// Client-supplied request id, echoed verbatim on the response so
  /// pipelined transports can match out-of-order completions.  Empty is
  /// legal.
  std::string id;
  Operation op;
  /// Opt-in per-request tracing (`"trace": true` on the JSON envelope):
  /// the dispatcher activates a span context for this request and echoes
  /// the recorded phase spans and hot-path facts as Response::trace.
  /// Tracing never changes solve results; when false (the default) no
  /// trace state exists and responses are byte-identical to an
  /// untraced dispatcher's.
  bool trace = false;
};

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// One Pareto point, witness pre-rendered against the request's model
/// (codecs never need the tree).
struct FrontPointPayload {
  double cost = 0.0;
  double damage = 0.0;
  std::string attack;  ///< attack_to_string() rendering, e.g. "{a, b}"
};

/// Result of a solve / session resolve.
struct SolvePayload {
  engine::Problem problem = engine::Problem::Cdpf;
  std::string backend;  ///< engine that produced the result
  std::string cache;    ///< "hit" | "miss" | "coalesced"
  service::CanonHash hash = 0;  ///< canonical model hash
  bool is_front = false;
  std::vector<FrontPointPayload> points;  ///< front problems
  bool feasible = false;                  ///< single-objective problems
  double cost = 0.0;
  double damage = 0.0;
  std::string attack;
};

/// Index-aligned batch results; items fail independently.
struct BatchPayload {
  struct Item {
    ErrorCode code = ErrorCode::Ok;
    std::string error;
    SolvePayload solve;  ///< valid when code == Ok
  };
  std::vector<Item> items;
};

struct SessionOpenedPayload {
  std::uint64_t session = 0;
};

struct EditAppliedPayload {};

struct SessionClosedPayload {};

/// An analysis table, verbatim in the library's byte-stable rendering.
struct AnalysisPayload {
  std::string kind;   ///< "sweep" | "sensitivity" | "portfolio"
  std::string table;  ///< analysis::to_table() output
};

/// Dispatcher-level operation counters — the "one source of truth" the
/// stats drift fix routes every protocol path through.
struct DispatchCounters {
  std::uint64_t requests = 0;   ///< total operations dispatched
  std::uint64_t solves = 0;     ///< solve ops + batch items + resolves
  std::uint64_t batches = 0;
  std::uint64_t session_opens = 0;
  std::uint64_t session_edits = 0;
  std::uint64_t session_resolves = 0;
  std::uint64_t session_closes = 0;
  std::uint64_t analyses = 0;   ///< sweep + sensitivity + portfolio runs
  std::uint64_t errors = 0;     ///< responses with code != Ok
};

/// Registry-histogram digest of dispatch latency, carried on the stats
/// payload so `stats` alone answers "how slow are we" without a full
/// metrics scrape.  Percentiles are the histogram's deterministic
/// bucket-edge values (obs::Histogram::percentile).
struct LatencySummary {
  std::uint64_t count = 0;       ///< requests recorded
  std::uint64_t sum_micros = 0;  ///< total recorded wall micros
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Snapshot save/load counters (src/persist/), carried on the stats
/// payload so warm-restart health is visible without a metrics scrape.
struct PersistCounters {
  std::uint64_t saves = 0;           ///< successful snapshot saves
  std::uint64_t loads = 0;           ///< successful snapshot loads
  std::uint64_t save_errors = 0;     ///< failed saves (io/encode)
  std::uint64_t load_errors = 0;     ///< failed loads (typed LoadStatus)
  std::uint64_t snapshot_bytes = 0;  ///< size of the last image written/read
};

struct StatsPayload {
  service::ResultCache::Stats cache;
  /// The service's subtree cache; no request binds it, so it reads 0 on
  /// a server.
  service::SubtreeCache::Stats subtree;
  std::size_t sessions = 0;
  DispatchCounters api;
  LatencySummary latency;  ///< atcd_api_request_micros digest
  PersistCounters persist;
};

/// The `metrics` op's result: the registry pre-rendered in both
/// canonical forms (obs::Registry::to_json / to_prometheus), so every
/// transport ships identical bytes.
struct MetricsPayload {
  std::string json;  ///< canonical JSON object
  std::string text;  ///< Prometheus-style text exposition
};

struct ShutdownPayload {
  /// Solve/resolve/analyze requests the connection handled; filled in
  /// by the serving loop (the dispatcher has no per-connection view).
  std::uint64_t handled = 0;
};

/// Result of a snapshot save or load.
struct SnapshotPayload {
  std::string action;  ///< "save" | "load"
  std::string path;    ///< the file the snapshot was written to / read from
  std::uint64_t result_entries = 0;   ///< ResultCache entries in the image
  std::uint64_t subtree_entries = 0;  ///< SubtreeCache entries in the image
  std::uint64_t file_bytes = 0;       ///< encoded image size
};

using Payload =
    std::variant<std::monostate, SolvePayload, BatchPayload,
                 SessionOpenedPayload, EditAppliedPayload,
                 SessionClosedPayload, AnalysisPayload, StatsPayload,
                 MetricsPayload, ShutdownPayload, SnapshotPayload>;

/// One recorded phase span (obs::Trace::Span, codec-friendly form).
/// Spans are listed in open (pre-)order; depth reconstructs the nesting.
struct TraceSpanPayload {
  std::string name;
  std::uint64_t depth = 0;
  std::uint64_t start_us = 0;  ///< offset from dispatch start
  std::uint64_t dur_us = 0;
};

/// The trace block echoed on a traced response: phase spans plus named
/// hot-path tallies (memo/cache hits, nodes swept, max front width).
struct TracePayload {
  std::vector<TraceSpanPayload> spans;
  std::vector<std::pair<std::string, std::uint64_t>> facts;
};

struct Response {
  std::string id;  ///< echoed Request::id
  ErrorCode code = ErrorCode::Ok;
  std::string error;    ///< human-readable message when code != Ok
  double micros = 0.0;  ///< wall time inside dispatch()
  Payload payload;      ///< monostate when code != Ok
  /// Present exactly when the request set Request::trace; emitted as a
  /// structured `trace` object by the JSON codec.
  std::optional<TracePayload> trace;
};

/// Convenience: an error response (payload stays monostate).
Response error_response(std::string id, ErrorCode code, std::string message);

}  // namespace atcd::api
