/// atcd_server — serves the solve API over stdin/stdout in the v1 JSON
/// envelope of src/api/json.hpp: one request object per line
/// (`{"v":1,"id":"7","op":"solve",...}`), one response object per line.
/// With --threads N > 1 requests are *pipelined*: workers dispatch them
/// concurrently and responses come back as they complete, possibly out
/// of order, matched by the client-supplied "id".  The session ends
/// with a structured shutdown response (on `quit` and on EOF).
///
/// With --listen host:port the same dispatcher moves onto the network
/// (src/net/): a multi-client TCP server speaking the JSON-lines
/// envelope (one connection = one pipelined session, exactly the
/// stdin semantics), or — with --http — a minimal HTTP/1.1
/// endpoint (POST /api/v1 carrying one envelope per request, GET
/// /healthz, GET /metrics).  SIGTERM/SIGINT drain gracefully:
/// accepting stops, in-flight requests finish, and every open
/// JSON-lines connection reads the structured shutdown response as its
/// final line.  --max-conns caps concurrent connections (excess
/// clients get one typed `capacity` error and are closed);
/// --max-line-bytes caps a single request line; --threads sizes each
/// connection's pipelining pool.
///
/// Usage:
///   atcd_server [--timing] [--threads N] [--slow-ms N]
///               [--trace-dir D] [--trace-max-files N]
///               [--listen host:port] [--http] [--max-conns N]
///               [--max-line-bytes N] [--max-queue N]
///               [--shards N] [--entries N] [--bytes N] [--no-cache]
///               [--subtree-entries N] [--subtree-bytes N]
///               [--no-subtree-cache]
///               [--snapshot FILE] [--snapshot-interval-s N]
///               [--router --shard host:port ...]
///
/// --snapshot FILE makes the caches durable: the file is loaded on
/// boot when present (a corrupt or foreign snapshot is reported and
/// the server starts cold) and saved on shutdown, in both stdin and
/// --listen modes; --snapshot-interval-s N additionally saves every N
/// seconds.  --router turns the binary into a shard-by-model-hash
/// front door (src/net/router.hpp) over the --shard workers: no local
/// solver, every request forwards to the shard owning its canonical
/// model hash, so isomorphic resubmissions always hit the same warm
/// cache.
///
/// --slow-ms N logs any request slower than N milliseconds on stderr
/// (one structured JSON object per offender:
/// {"event":"slow_request","op":...,"id":...,"code":...,"micros":...}).
/// --trace-dir D additionally samples those slow requests as Chrome
/// trace-event JSON files (atcd_trace_<seq>_<op>.json, loadable in
/// chrome://tracing / Perfetto) into the existing directory D — without
/// --slow-ms every request is sampled — capped at --trace-max-files
/// (default 256) per server lifetime.  The `metrics` operation renders
/// the full instrument registry at any time.
///
/// --threads caps the worker threads for the scenario-analysis
/// fan-outs and additionally sizes the pipelined dispatch pool; 0
/// (default) = hardware concurrency for analyses, synchronous dispatch.
/// --timing adds per-response wall micros to responses (omitted by
/// default so responses are byte-identical across runs and thread
/// counts).
///
/// One-shot example (try it interactively, or pipe it in; the model is
/// a "model" string in the at/parser.hpp format, lines joined by \n
/// escapes):
///
///   {"v":1,"id":"1","op":"solve","problem":"cdpf","model":"bas pick cost=1 damage=2\nbas drill cost=4 damage=1\nor open = pick, drill damage=10\n"}
///   {"v":1,"id":"2","op":"stats"}
///   {"v":1,"id":"3","op":"quit"}

#include <sys/stat.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/server.hpp"
#include "net/router.hpp"
#include "net/server.hpp"

namespace {

/// Dispatches one snapshot-save/-load through the dispatcher (so the
/// atcd_persist_* counters and gauges see it) and logs the outcome.
/// Returns false on a typed persist error — callers treat that as
/// advisory: a server never dies over a snapshot.
bool snapshot_op(atcd::api::Dispatcher& dispatcher, atcd::api::Operation op,
                 const char* verb) {
  atcd::api::Request req;
  req.op = std::move(op);
  const atcd::api::Response resp = dispatcher.dispatch(req);
  if (resp.code != atcd::api::ErrorCode::Ok) {
    std::fprintf(stderr, "atcd_server: snapshot %s failed: %s\n", verb,
                 resp.error.c_str());
    return false;
  }
  if (const auto* p =
          std::get_if<atcd::api::SnapshotPayload>(&resp.payload)) {
    std::fprintf(stderr,
                 "atcd_server: snapshot %s %s (%llu results, %llu subtrees, "
                 "%llu bytes)\n",
                 verb, p->path.c_str(),
                 static_cast<unsigned long long>(p->result_entries),
                 static_cast<unsigned long long>(p->subtree_entries),
                 static_cast<unsigned long long>(p->file_bytes));
  }
  return true;
}

bool snapshot_save(atcd::api::Dispatcher& dispatcher,
                   const std::string& path) {
  return snapshot_op(dispatcher, atcd::api::SnapshotSaveRequest{path},
                     "save");
}

/// Load-on-boot: a missing file is a normal cold start, anything else
/// (corrupt, foreign version, truncated) is reported and the server
/// continues cold — a bad snapshot must never keep a fleet down.
void snapshot_boot_load(atcd::api::Dispatcher& dispatcher,
                        const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    std::fprintf(stderr, "atcd_server: no snapshot at %s, starting cold\n",
                 path.c_str());
    return;
  }
  snapshot_op(dispatcher, atcd::api::SnapshotLoadRequest{path}, "load");
}

/// Background periodic saver (--snapshot-interval-s).  Interruptible
/// sleep via condition_variable so shutdown never waits out an
/// interval.
class PeriodicSaver {
 public:
  PeriodicSaver(atcd::api::Dispatcher& dispatcher, std::string path,
                long interval_s)
      : thread_([this, &dispatcher, path = std::move(path), interval_s] {
          std::unique_lock<std::mutex> lock(mu_);
          while (!cv_.wait_for(lock, std::chrono::seconds(interval_s),
                               [this] { return stop_; })) {
            lock.unlock();
            snapshot_save(dispatcher, path);
            lock.lock();
          }
        }) {}

  ~PeriodicSaver() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  atcd::api::Dispatcher::Options opt;
  atcd::api::JsonServeOptions jopt;
  atcd::net::ServerOptions nopt;
  bool listen = false;
  bool router = false;
  std::vector<atcd::net::ShardAddress> shard_addrs;
  std::string snapshot_path;
  long snapshot_interval_s = 0;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--timing") == 0)
      jopt.timing = true;
    else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "atcd_server: --listen wants host:port\n");
        return 2;
      }
      nopt.host = spec.substr(0, colon);
      nopt.port = static_cast<std::uint16_t>(
          std::strtoul(spec.c_str() + colon + 1, nullptr, 10));
      listen = true;
    } else if (std::strcmp(argv[i], "--http") == 0)
      nopt.http = true;
    else if (std::strcmp(argv[i], "--max-conns") == 0 && i + 1 < argc)
      nopt.max_conns = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--max-line-bytes") == 0 && i + 1 < argc)
      jopt.max_line_bytes = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--max-queue") == 0 && i + 1 < argc)
      jopt.max_queue = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc)
      opt.service.cache.shards = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--entries") == 0 && i + 1 < argc)
      opt.service.cache.max_entries = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--bytes") == 0 && i + 1 < argc)
      opt.service.cache.max_bytes = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--no-cache") == 0)
      opt.service.enable_cache = false;
    else if (std::strcmp(argv[i], "--subtree-entries") == 0 && i + 1 < argc)
      opt.service.subtree.max_entries = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--subtree-bytes") == 0 && i + 1 < argc)
      opt.service.subtree.max_bytes = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--no-subtree-cache") == 0)
      opt.service.enable_subtree_cache = false;
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--slow-ms") == 0 && i + 1 < argc)
      opt.slow_request_micros = std::strtod(argv[++i], nullptr) * 1000.0;
    else if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc)
      opt.trace_dir = argv[++i];
    else if (std::strcmp(argv[i], "--trace-max-files") == 0 && i + 1 < argc)
      opt.trace_max_files = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc)
      snapshot_path = argv[++i];
    else if (std::strcmp(argv[i], "--snapshot-interval-s") == 0 &&
             i + 1 < argc)
      snapshot_interval_s = std::strtol(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--router") == 0)
      router = true;
    else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "atcd_server: --shard wants host:port\n");
        return 2;
      }
      shard_addrs.push_back(
          {spec.substr(0, colon),
           static_cast<std::uint16_t>(
               std::strtoul(spec.c_str() + colon + 1, nullptr, 10))});
    } else {
      std::fprintf(stderr,
                   "usage: atcd_server [--timing] [--threads N] "
                   "[--slow-ms N] [--trace-dir D] [--trace-max-files N] "
                   "[--listen host:port] [--http] [--max-conns N] "
                   "[--max-line-bytes N] [--max-queue N] "
                   "[--shards N] [--entries N] [--bytes N] [--no-cache] "
                   "[--subtree-entries N] [--subtree-bytes N] "
                   "[--no-subtree-cache] "
                   "[--snapshot FILE] [--snapshot-interval-s N] "
                   "[--router --shard host:port ...]\n"
                   "Serves the solve API on stdin/stdout in the v1 JSON "
                   "envelope (pipelined when --threads > 1).  With --listen, a "
                   "multi-client TCP (or, with --http, HTTP/1.1) server "
                   "speaking the same envelope.  --snapshot FILE loads the "
                   "cache snapshot on boot (if present) and saves it on "
                   "shutdown; --snapshot-interval-s N also saves every N "
                   "seconds.  --router turns the binary into a "
                   "shard-by-model-hash front door over the given --shard "
                   "workers (no local solver).  See the README's \"Network "
                   "transport\" and \"Persistence & scale-out\" sections.\n");
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }
  opt.service.batch.threads = threads;
  jopt.threads = threads;

  if (router) {
    // Front-door mode: no local solver, every request forwards to a
    // worker chosen by canonical model hash.
    atcd::net::RouterOptions ropt;
    if (listen) {
      ropt.host = nopt.host;
      ropt.port = nopt.port;
    }
    ropt.shards = std::move(shard_addrs);
    ropt.max_conns = nopt.max_conns;
    ropt.max_line_bytes = jopt.max_line_bytes;
    ropt.timing = jopt.timing;
    atcd::net::Router front(std::move(ropt));
    std::string err;
    if (!front.start(&err)) {
      std::fprintf(stderr, "atcd_server: %s\n", err.c_str());
      return 2;
    }
    front.install_signal_handlers();
    std::fprintf(stderr,
                 "atcd_server: routing on %s:%u over %zu shards "
                 "(max %zu conns)\n",
                 (listen ? nopt.host : std::string("127.0.0.1")).c_str(),
                 static_cast<unsigned>(front.port()),
                 front.shard_count(), nopt.max_conns);
    front.wait();  // returns after SIGTERM/SIGINT graceful drain
    std::fprintf(stderr,
                 "atcd_server: router drained after %llu handled "
                 "(%llu forwarded)\n",
                 static_cast<unsigned long long>(front.handled()),
                 static_cast<unsigned long long>(front.forwarded()));
    return 0;
  }

  atcd::api::Dispatcher dispatcher(opt);

  if (!snapshot_path.empty()) snapshot_boot_load(dispatcher, snapshot_path);
  std::unique_ptr<PeriodicSaver> saver;
  if (!snapshot_path.empty() && snapshot_interval_s > 0)
    saver = std::make_unique<PeriodicSaver>(dispatcher, snapshot_path,
                                            snapshot_interval_s);

  if (listen) {
    nopt.serve = jopt;
    atcd::net::Server server(dispatcher, nopt);
    std::string err;
    if (!server.start(&err)) {
      std::fprintf(stderr, "atcd_server: %s\n", err.c_str());
      return 2;
    }
    server.install_signal_handlers();
    std::fprintf(stderr,
                 "atcd_server: listening on %s:%u (%s, max %zu conns, "
                 "%zu worker threads/conn)\n",
                 nopt.host.c_str(), static_cast<unsigned>(server.port()),
                 nopt.http ? "http" : "json-lines", nopt.max_conns,
                 jopt.threads);
    server.wait();  // returns after SIGTERM/SIGINT graceful drain
    saver.reset();  // stop periodic saves before the final image
    if (!snapshot_path.empty()) snapshot_save(dispatcher, snapshot_path);
    const auto s = dispatcher.stats();
    std::fprintf(stderr,
                 "atcd_server: drained after %llu solves "
                 "(requests=%llu errors=%llu)\n",
                 static_cast<unsigned long long>(server.handled()),
                 static_cast<unsigned long long>(s.api.requests),
                 static_cast<unsigned long long>(s.api.errors));
    return 0;
  }

  std::fprintf(stderr,
               "atcd_server: ready (json mode, cache %s, %zu shards, "
               "%zu entries, %zu bytes)\n",
               opt.service.enable_cache ? "on" : "off",
               opt.service.cache.shards, opt.service.cache.max_entries,
               opt.service.cache.max_bytes);
  const std::size_t n =
      atcd::api::serve_json(std::cin, std::cout, dispatcher, jopt);
  saver.reset();  // stop periodic saves before the final image
  if (!snapshot_path.empty()) snapshot_save(dispatcher, snapshot_path);
  const auto s = dispatcher.stats();
  std::fprintf(stderr,
               "atcd_server: session end after %zu solves "
               "(requests=%llu errors=%llu; cache hits=%llu misses=%llu "
               "evictions=%llu collisions=%llu; subtree hits=%llu "
               "misses=%llu entries=%zu)\n",
               n, static_cast<unsigned long long>(s.api.requests),
               static_cast<unsigned long long>(s.api.errors),
               static_cast<unsigned long long>(s.cache.hits),
               static_cast<unsigned long long>(s.cache.misses),
               static_cast<unsigned long long>(s.cache.evictions),
               static_cast<unsigned long long>(s.cache.collisions),
               static_cast<unsigned long long>(s.subtree.hits),
               static_cast<unsigned long long>(s.subtree.misses),
               s.subtree.entries);
  return 0;
}
