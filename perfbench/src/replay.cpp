#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <variant>

#include "api/json.hpp"
#include "at/parser.hpp"
#include "at/structure.hpp"
#include "engine/batch.hpp"
#include "persist/snapshot.hpp"
#include "service/cache.hpp"
#include "service/session.hpp"
#include "stats.hpp"

namespace perfbench {

namespace api = atcd::api;
namespace service = atcd::service;
namespace engine = atcd::engine;
using Clock = std::chrono::steady_clock;

std::uint64_t response_digest(const std::string& line) {
  static const std::string kKey = "\"cache\":\"";
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&h](const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 0x100000001b3ull;
    }
  };
  const std::size_t at = line.find(kKey);
  const std::size_t value = at == std::string::npos ? 0 : at + kKey.size();
  const std::size_t close =
      at == std::string::npos ? std::string::npos : line.find('"', value);
  if (close == std::string::npos) {
    feed(line.data(), line.size());
  } else {
    feed(line.data(), value);
    feed("x", 1);
    feed(line.data() + close, line.size() - close);
  }
  return h;
}

std::unique_ptr<api::Dispatcher> boot_dispatcher(const std::string& snapshot,
                                                 double* load_s) {
  auto d = std::make_unique<api::Dispatcher>();
  std::string err;
  const auto t0 = Clock::now();
  const atcd::persist::LoadStatus st = atcd::persist::decode_snapshot(
      snapshot, &d->service().cache(), &d->service().subtree_cache(), nullptr,
      &err);
  if (load_s)
    *load_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (st != atcd::persist::LoadStatus::Ok)
    throw std::runtime_error(std::string("snapshot load failed: ") +
                             atcd::persist::to_string(st) + " " + err);
  return d;
}

namespace {

api::Response dispatch_decoded(api::Dispatcher& d,
                               const api::Decoded<api::Request>& dec) {
  if (dec.code != api::ErrorCode::Ok)
    return api::error_response(dec.value.id, dec.code, dec.error);
  return d.dispatch(dec.value);
}

void run_setup(api::Dispatcher& d, const Stream& stream) {
  for (const std::string& line : stream.setup_lines()) {
    const std::string out = dispatch_line(d, line);
    if (out.find("\"code\":\"ok\"") == std::string::npos)
      throw std::runtime_error("in-process set-up request failed: " + out);
  }
}

}  // namespace

std::string dispatch_line(api::Dispatcher& d, const std::string& line) {
  return api::encode_response(dispatch_decoded(d, api::decode_request(line)),
                              false);
}

std::vector<std::uint64_t> reference_digests(const Stream& stream,
                                             const LineFn& line, std::uint64_t n,
                                             const std::string& snapshot,
                                             unsigned threads) {
  const auto d = boot_dispatcher(snapshot, nullptr);
  run_setup(*d, stream);
  std::vector<std::uint64_t> out(n);
  threads = std::max(1u, threads);
  std::mutex err_mu;
  std::string first_error;
  const auto worker = [&](unsigned t) {
    try {
      for (std::uint64_t k = 0; k < n; ++k) {
        const std::size_t owner =
            stream.stateful() ? stream.shard_key(k) : static_cast<std::size_t>(k);
        if (owner % threads != t) continue;
        out[k] = response_digest(dispatch_line(*d, line(k)));
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (first_error.empty()) first_error = e.what();
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();
  if (!first_error.empty())
    throw std::runtime_error("reference replay failed: " + first_error);
  return out;
}

std::size_t bilp_disagreements(const std::vector<std::string>& lines,
                               std::string* detail) {
  api::Dispatcher d;
  std::size_t bad = 0;
  for (const std::string& line : lines) {
    api::Decoded<api::Request> dec = api::decode_request(line);
    const auto* solve = std::get_if<api::SolveRequest>(&dec.value.op);
    if (dec.code != api::ErrorCode::Ok || !solve)
      throw std::runtime_error("BILP sample is not a solve request");
    const api::Response base = d.dispatch(dec.value);
    api::Request alt = dec.value;
    std::get<api::SolveRequest>(alt.op).spec.engine = "bilp";
    const api::Response other = d.dispatch(alt);
    const auto* a = std::get_if<api::SolvePayload>(&base.payload);
    const auto* b = std::get_if<api::SolvePayload>(&other.payload);
    // The optimum must agree; witnesses may differ among equal optima.
    const bool same =
        a && b && a->feasible == b->feasible &&
        (!a->feasible ||
         (solve->spec.problem == engine::Problem::Dgc
              ? std::abs(a->damage - b->damage) < 1e-9
              : std::abs(a->cost - b->cost) < 1e-9));
    if (!same) {
      if (bad == 0 && detail)
        *detail = dec.value.id + ": " + api::encode_response(base, false) +
                  " vs bilp " + api::encode_response(other, false);
      ++bad;
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Traced replay.
// ---------------------------------------------------------------------------

namespace {

/// Span names; the first three are the request envelope, the rest are
/// the layers whose self time is attributed.
enum SpanName : std::uint8_t {
  kRequest,
  kDecode,
  kDispatch,
  kEncode,
  kParse,
  kCanon,
  kLookup,
  kInsert,
  kSolve,
  kEdit,
  kResolve,
  kRender,
  kSpanNames
};

constexpr const char* kSpanText[kSpanNames] = {
    "request",      "wire.decode",   "api.dispatch",    "wire.encode",
    "at.parse",     "service.canon", "cache.lookup",    "cache.insert",
    "engine.solve", "session.edit",  "session.resolve", "api.render"};

struct Span {
  SpanName name;
  std::int32_t parent;  ///< index into the span vector; -1 = root
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Span recorder: spans live in memory until the replay ends.
class Recorder {
 public:
  explicit Recorder(Clock::time_point t0) : t0_(t0) {}

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }
  std::int32_t add(SpanName name, std::int32_t parent, std::uint64_t req,
                   std::int64_t start, std::int64_t end) {
    spans_.push_back({name, parent, req, start, end});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Times \p fn as a span and returns its index.
  template <typename Fn>
  std::int32_t time(SpanName name, std::int32_t parent, std::uint64_t req,
                    Fn&& fn) {
    const std::int64_t s = now();
    fn();
    return add(name, parent, req, s, now());
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// The twin of the replay dispatcher: the same caches, booted from the
/// same snapshot and fed the same requests, driven through each layer's
/// public entry point so every layer can be timed on its own.
struct Twin {
  service::ResultCache cache;
  service::SubtreeCache subtree;
  std::vector<std::unique_ptr<service::Session>> sessions;
};

/// The witness rendering of api::Dispatcher's solve payload.
std::size_t render(const engine::SolveResult& r, const atcd::AttackTree& t) {
  std::size_t bytes = 0;
  if (!r.front.empty()) {
    for (const auto& fp : r.front) bytes += atcd::attack_to_string(t, fp.witness).size();
  } else if (r.attack.feasible) {
    bytes += atcd::attack_to_string(t, r.attack.witness).size();
  }
  return bytes;
}

/// Replays one request through the twin, recording its layer spans
/// under \p parent.  Returns whether the twin's result cache hit
/// (solves only).
bool twin_request(Twin& twin, const api::Request& req, Recorder& rec,
                  std::int32_t parent, std::uint64_t k, std::size_t* sink) {
  if (const auto* s = std::get_if<api::SolveRequest>(&req.op)) {
    auto model = std::make_shared<atcd::CdAt>();
    rec.time(kParse, parent, k, [&] {
      atcd::ParsedModel p = atcd::parse_model(s->spec.model);
      model->tree = std::move(p.tree);
      model->cost = std::move(p.cost);
      model->damage = std::move(p.damage);
      model->validate();
    });
    engine::Instance in;
    in.problem = s->spec.problem;
    in.det = model.get();
    in.bound = s->spec.bound;
    in.backend = s->spec.engine;
    std::optional<service::CacheKey> key;
    rec.time(kCanon, parent, k, [&] {
      if (engine::instance_error(in).empty()) key = service::make_key(in);
    });
    if (!key) throw std::runtime_error("replay request has no cache key");
    std::optional<engine::SolveResult> result;
    rec.time(kLookup, parent, k,
             [&] { result = twin.cache.lookup(*key, model.get(), nullptr); });
    const bool hit = result.has_value();
    if (!hit) {
      rec.time(kSolve, parent, k, [&] {
        engine::BatchOptions opt;
        opt.subtree = &twin.subtree;
        result = engine::solve_one(in, opt);
      });
      rec.time(kInsert, parent, k, [&] {
        if (result->ok) twin.cache.insert(*key, model, nullptr, *result);
      });
    }
    rec.time(kRender, parent, k, [&] { *sink += render(*result, model->tree); });
    return hit;
  }
  if (const auto* e = std::get_if<api::SessionEditRequest>(&req.op)) {
    rec.time(kEdit, parent, k, [&] {
      twin.sessions.at(e->session - 1)->set_cost(e->target, e->value);
    });
    return false;
  }
  if (const auto* r = std::get_if<api::SessionResolveRequest>(&req.op)) {
    service::Response resp;
    rec.time(kResolve, parent, k,
             [&] { resp = twin.sessions.at(r->session - 1)->resolve(); });
    rec.time(kRender, parent, k,
             [&] { *sink += render(resp.result, resp.det->tree); });
    return false;
  }
  throw std::runtime_error("replay stream holds an unsupported operation");
}

void open_twin_sessions(Twin& twin, const Stream& stream) {
  for (const std::string& line : stream.setup_lines()) {
    const auto dec = api::decode_request(line);
    const auto& open = std::get<api::SessionOpenRequest>(dec.value.op);
    service::Session::Options opt;
    opt.problem = open.spec.problem;
    opt.bound = open.spec.bound;
    opt.engine_name = open.spec.engine;
    opt.shared = &twin.subtree;
    twin.sessions.push_back(
        std::make_unique<service::Session>(open.spec.model, std::move(opt)));
  }
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Layer spans measured on the twin run on their own track (tid 2).
    const int tid = s.name >= kParse ? 2 : 1;
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  i ? "," : "", kSpanText[s.name], tid, s.start_ns / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "]}\n";
}

}  // namespace

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (int i = kDecode; i < kSpanNames; ++i) v.push_back(kSpanText[i]);
    return v;
  }();
  return names;
}

ReplayResult replay(const Stream& stream, const LineFn& line, std::uint64_t n,
                    const std::string& snapshot,
                    const std::vector<std::uint64_t>& socket_digests,
                    const std::string& trace_path) {
  ReplayResult out;
  out.requests = n;
  std::vector<std::string> lines(n);
  for (std::uint64_t k = 0; k < n; ++k) lines[k] = line(k);

  // Untraced: exactly what the server's connection thread does per line.
  {
    double load = 0.0;
    const auto d = boot_dispatcher(snapshot, &load);
    out.load_s.push_back(load);
    run_setup(*d, stream);
    out.inproc_us.reserve(n);
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < n; ++k) {
      const auto s = Clock::now();
      const std::string resp = dispatch_line(*d, lines[k]);
      out.inproc_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - s).count());
      if (response_digest(resp) != socket_digests[k]) ++out.mismatches;
    }
    out.untraced_s = std::chrono::duration<double>(Clock::now() - t0).count();
  }

  // Traced: the dispatcher path timed in three spans per request, and
  // its twin timing each layer entry point on the same request.
  double load = 0.0;
  const auto d = boot_dispatcher(snapshot, &load);
  out.load_s.push_back(load);
  run_setup(*d, stream);
  Twin twin;
  {
    const auto t0 = Clock::now();
    const atcd::persist::LoadStatus st = atcd::persist::decode_snapshot(
        snapshot, &twin.cache, &twin.subtree);
    out.load_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (st != atcd::persist::LoadStatus::Ok)
      throw std::runtime_error("twin snapshot load failed");
  }
  open_twin_sessions(twin, stream);

  const auto t0 = Clock::now();
  Recorder rec(t0);
  rec.spans().reserve(n * 10);
  std::size_t sink = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::int64_t a = rec.now();
    const api::Decoded<api::Request> dec = api::decode_request(lines[k]);
    const std::int64_t b = rec.now();
    const api::Response resp = dispatch_decoded(*d, dec);
    const std::int64_t c = rec.now();
    const std::string encoded = api::encode_response(resp, false);
    const std::int64_t e = rec.now();
    const std::int32_t root = rec.add(kRequest, -1, k, a, e);
    rec.add(kDecode, root, k, a, b);
    const std::int32_t dispatch = rec.add(kDispatch, root, k, b, c);
    rec.add(kEncode, root, k, c, e);
    if (response_digest(encoded) != socket_digests[k]) ++out.mismatches;
    const bool twin_hit = twin_request(twin, dec.value, rec, dispatch, k, &sink);
    if (const auto* p = std::get_if<api::SolvePayload>(&resp.payload);
        p && std::get_if<api::SolveRequest>(&dec.value.op) &&
        (p->cache == "hit") != twin_hit)
      ++out.divergences;
  }
  out.traced_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.render_bytes = sink;

  // Self time: a span's duration minus its children's durations.
  std::vector<Span>& spans = rec.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  for (const Span& s : spans)
    if (s.parent >= 0) self[s.parent] -= static_cast<double>(s.end_ns - s.start_ns);

  double request_ns = 0.0;
  std::vector<std::vector<double>> per_layer(kSpanNames);
  std::vector<double> layer_ns(kSpanNames, 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == kRequest) {
      request_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      continue;
    }
    per_layer[spans[i].name].push_back(self[i] / 1e3);
    layer_ns[spans[i].name] += self[i];
  }
  double attributed_ns = 0.0;
  for (int l = kDecode; l < kSpanNames; ++l) {
    LayerFigures f;
    f.spans = per_layer[l].size();
    if (!per_layer[l].empty()) {
      f.self_us_p50 = exact_quantile(per_layer[l], 0.50);
      f.self_us_p99 = exact_quantile(per_layer[l], 0.99);
    }
    f.share = request_ns > 0 ? layer_ns[l] / request_ns : 0.0;
    out.layers[kSpanText[l]] = f;
    // The dispatcher's own remainder is not a layer's work.
    if (l != kDispatch) attributed_ns += layer_ns[l];
  }
  out.unattributed_share =
      request_ns > 0 ? (request_ns - attributed_ns) / request_ns : 0.0;
  write_chrome_trace(trace_path, spans);
  return out;
}

}  // namespace perfbench
