/// atcd_perfbench — the end-to-end benchmark of atcd_server.
///
/// One run measures one workload (warm_hits, cold_solves or
/// edit_sessions; see workload.hpp and ../README.md):
///
///   1. prepare: an in-process serving stack solves the filler models
///      and the warm pool until the result cache holds its 4,096-entry
///      budget, then saves a snapshot (src/persist/);
///   2. set up: boot atcd_server from that snapshot several times
///      (spawn -> snapshot loaded -> first response, plus the session
///      opens of edit_sessions); setup_s is the median boot;
///   3. time: one client thread drives the last boot over one
///      persistent JSON-lines TCP connection in a closed loop, after an
///      untimed warm-up, for --seconds of windows the hypervisor did not
///      disturb; the figures are medians over those windows;
///   4. with --trace 1: an untraced and a traced in-process replay of
///      the stream's prefix give the per-layer metrics;
///   5. check: every socket response is compared byte for byte with an
///      in-process api::Dispatcher booted from the same snapshot (the
///      cache disposition member blanked), and cold answers are
///      sampled against the BILP engine.
///
/// The last line of stdout is the result object
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// preceded by one {"report":...} line holding the exact latency
/// statistics, per-phase request counts and the run environment.
/// Exit status: 0 when every response was correct, 1 on a correctness
/// failure, 2 on a usage or environment error.
///
///   atcd_perfbench --workload W --seed N --seconds S --trace 0|1
///                  --server PATH --work DIR [--source ID] [--tiny]
///                  [--corrupt-line K]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/dispatcher.hpp"
#include "api/json.hpp"
#include "process.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace api = atcd::api;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  Workload workload = Workload::WarmHits;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string work;
  std::string source = "unknown";
  bool tiny = false;
  std::optional<std::uint64_t> corrupt_line;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "atcd_perfbench: %s\nusage: atcd_perfbench --workload "
               "warm_hits|cold_solves|edit_sessions --seed N --seconds S "
               "--trace 0|1 --server PATH --work DIR [--source ID] [--tiny] "
               "[--corrupt-line K]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      const auto w = parse_workload(value());
      if (!w) usage("unknown workload");
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--server") {
      a.server = value();
    } else if (flag == "--work") {
      a.work = value();
    } else if (flag == "--source") {
      a.source = value();
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--corrupt-line") {
      a.corrupt_line = std::stoull(value());
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.server.empty() || a.work.empty()) usage("--server and --work are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Ordered JSON object builder for the report and result lines.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += api::json::dump_string(key) + ":" + json;
    return *this;
  }
  Obj& n(const std::string& key, double v) { return raw(key, num(v)); }
  Obj& s(const std::string& key, const std::string& v) {
    return raw(key, api::json::dump_string(v));
  }
  Obj& b(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string summary_json(const Summary& s) {
  return Obj()
      .n("count", static_cast<double>(s.count))
      .n("p25", s.p25)
      .n("p50", s.p50)
      .n("p75", s.p75)
      .n("p99", s.p99)
      .n("beyond_p99", static_cast<double>(s.beyond_p99))
      .b("p99_supported", s.beyond_p99 >= 10)
      .str();
}

/// One window of the timed phase: a fixed stretch of active time.
struct Window {
  std::size_t first = 0, end = 0;  ///< latency samples [first, end)
  double seconds = 0.0;            ///< active (timed) seconds
  double steal_share = 0.0;        ///< stolen CPU time / (wall span x CPUs)
  double server_cpu_s = 0.0;       ///< server user+sys CPU in the window
  bool clean = false;              ///< steal_share within kMaxSteal
  std::size_t requests = 0;
  std::size_t good = 0;  ///< ok and parity-correct
  Summary latency;
  double rps() const { return seconds > 0 ? good / seconds : 0.0; }
};

std::string windows_json(const std::vector<Window>& windows) {
  std::string out = "[";
  for (std::size_t i = 0; i < windows.size(); ++i)
    out += (i ? "," : "") + Obj()
                                .n("requests", static_cast<double>(windows[i].requests))
                                .n("seconds", windows[i].seconds)
                                .n("rps", windows[i].rps())
                                .n("steal_share", windows[i].steal_share)
                                .b("clean", windows[i].clean)
                                .raw("latency_us", summary_json(windows[i].latency))
                                .str();
  return out + "]";
}

template <typename Fn>
double median_of(const std::vector<Window>& windows, Fn&& fn) {
  std::vector<double> v;
  for (const Window& w : windows) v.push_back(fn(w));
  return median(v);
}

struct PhaseCount {
  std::uint64_t sent = 0, completed = 0, failed = 0;
  std::string json() const {
    return Obj()
        .n("sent", static_cast<double>(sent))
        .n("completed", static_cast<double>(completed))
        .n("failed", static_cast<double>(failed))
        .str();
  }
};

// ---------------------------------------------------------------------------
// Server counters.
// ---------------------------------------------------------------------------

bool is_ok(const std::string& response) {
  return response.find("\"code\":\"ok\"") != std::string::npos;
}

/// Counter values of the server's `metrics` exposition.
std::map<std::string, double> server_counters(LineClient& c, const std::string& id) {
  std::string line;
  if (!c.request(metrics_line(id), &line))
    throw std::runtime_error("metrics request failed");
  const auto dec = api::decode_response(line);
  const auto* m = std::get_if<api::MetricsPayload>(&dec.value.payload);
  if (dec.code != api::ErrorCode::Ok || !m)
    throw std::runtime_error("bad metrics response: " + line.substr(0, 200));
  api::json::Value doc;
  std::string err;
  if (!api::json::parse(m->json, &doc, &err))
    throw std::runtime_error("bad metrics exposition: " + err);
  std::map<std::string, double> out;
  if (const auto* counters = doc.find("counters"))
    for (const auto& [name, v] : counters->members) out[name] = v.number;
  return out;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

/// The timed phase is cut into windows of this much active time; the
/// end-to-end figures are medians over windows, so a disturbance of a
/// few hundred milliseconds moves them little.
constexpr double kWindowSeconds = 1.5;
/// A window in which the hypervisor stole more than this share of the
/// machine's CPU time is disturbed: it is reported but not counted, and
/// the phase runs on (up to kMaxStretch x --seconds of active time)
/// until --seconds worth of undisturbed windows are in.  Steal comes in
/// episodes in which p99 grows 4-10x; the stretch outlasts short ones
/// and stays short enough that a run of fully disturbed runs still fits
/// the benchmark's time budget.
constexpr double kMaxSteal = 0.02;
constexpr double kMaxStretch = 1.6;

double ratio(double num_, double den) { return den > 0 ? num_ / den : 0.0; }

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run(const Args& args) {
  const Scale scale = args.tiny ? Scale::tiny() : Scale::full();
  const unsigned nproc = cpu_count();
  // Threads for side work while the server runs (generation,
  // preparation); the reference check, with the server stopped, may use
  // every CPU.
  const unsigned helpers = std::max(1u, std::min(3u, nproc - 1));
  const double load_before = load_average();
  if (load_before > nproc / 2.0)
    std::fprintf(stderr,
                 "atcd_perfbench: warning: load average %.2f exceeds nproc/2 "
                 "(%u CPUs) before the run; readings may be disturbed\n",
                 load_before, nproc);

  const std::string dir = args.work + "/run-" + std::to_string(::getpid());
  fs::create_directories(dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{dir};

  // 1. Prepare the snapshot every workload boots from.
  const auto prep_t0 = Clock::now();
  PhaseCount prep;
  const std::string snap_path = dir + "/prepared.snap";
  {
    const PrepLines lines = prep_lines(args.seed, scale, helpers);
    api::Dispatcher d;
    // One thread, in order: the cache contents (which fillers the budget
    // evicts) then depend on the seed alone, and the pool, last, ends
    // most recently used.
    std::size_t good = 0;
    for (const auto* part : {&lines.fillers, &lines.pool})
      for (const std::string& line : *part) good += is_ok(dispatch_line(d, line));
    prep.sent = lines.fillers.size() + lines.pool.size();
    prep.completed = good;
    prep.failed = prep.sent - good;
    api::Request save;
    save.op = api::SnapshotSaveRequest{snap_path};
    if (d.dispatch(save).code != api::ErrorCode::Ok)
      throw std::runtime_error("cannot save the prepared snapshot");
  }
  // Write the image back now, not during the timed phase.
  ::sync();
  const std::string snapshot = read_bytes(snap_path);
  const double prep_s = seconds_since(prep_t0);
  if (prep.failed) throw std::runtime_error("preparation requests failed");

  const std::unique_ptr<Stream> stream = make_stream(args.workload, args.seed, scale);
  const std::vector<std::string> setup = stream->setup_lines();

  // 2. Set up: boot the server from the snapshot several times.
  std::vector<double> boots;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<LineClient> client;
  PhaseCount setup_count;
  for (std::size_t b = 0; b < scale.setup_boots; ++b) {
    const std::string boot_snap = dir + "/boot" + std::to_string(b) + ".snap";
    // The server saves over its snapshot on shutdown, via rename: a
    // hard link keeps the prepared image intact.
    std::error_code ec;
    fs::create_hard_link(snap_path, boot_snap, ec);
    if (ec) fs::copy_file(snap_path, boot_snap);
    const auto t0 = Clock::now();
    auto proc = std::make_unique<ServerProcess>(
        args.server,
        std::vector<std::string>{"--listen", "127.0.0.1:0", "--snapshot", boot_snap},
        dir + "/server" + std::to_string(b) + ".log");
    const std::uint16_t port = proc->wait_for_port(120.0);
    if (!port) throw std::runtime_error("server did not start listening");
    auto conn = std::make_unique<LineClient>(port);
    if (!conn->connected()) throw std::runtime_error("cannot connect to the server");
    std::string resp;
    std::vector<std::string> lines{stats_line("boot")};
    lines.insert(lines.end(), setup.begin(), setup.end());
    for (const std::string& line : lines) {
      ++setup_count.sent;
      if (!conn->request(line, &resp) || !is_ok(resp)) {
        ++setup_count.failed;
        throw std::runtime_error("set-up request failed: " + resp.substr(0, 200));
      }
      ++setup_count.completed;
    }
    boots.push_back(seconds_since(t0));
    if (b + 1 == scale.setup_boots) {
      server = std::move(proc);
      client = std::move(conn);
    }
  }

  // 3. The timed phase, after an untimed warm-up.
  const pid_t pid = server->pid();
  std::vector<std::uint64_t> digests;
  std::vector<char> ok;
  std::vector<double> latency_us;
  PhaseCount warm, timed;
  std::string resp;
  const auto send = [&](const std::string& line, std::uint64_t index) {
    if (!client->request(line, &resp))
      throw std::runtime_error("connection to the server failed");
    if (args.corrupt_line && *args.corrupt_line == index && !resp.empty())
      resp[resp.size() / 2] ^= 0x20;
    digests.push_back(response_digest(resp));
    ok.push_back(is_ok(resp));
  };
  std::vector<std::string> kept;  ///< the lines sent, for costly streams
  std::uint64_t k = 0;
  for (; k < scale.warmup_requests; ++k) {
    const std::string line = stream->line(k);
    send(line, k);
    if (stream->costly()) kept.push_back(line);
    ++warm.sent;
  }
  const auto before = server_counters(*client, "before");
  const std::uint64_t first_timed = k;
  // One latency sample per group of lines (an edit and its resolve on
  // edit_sessions, one request elsewhere).
  const std::size_t group = stream->group();
  const std::size_t want_windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(args.seconds / kWindowSeconds)));
  std::vector<Window> windows;
  std::size_t clean_windows = 0;
  double generate_s = 0.0;  ///< line generation between chunks (untimed)
  std::vector<std::string> chunk;
  std::size_t pos = 0;
  const auto phase0 = Clock::now();
  const auto active = [&] { return seconds_since(phase0) - generate_s; };
  Window win;
  auto win_wall0 = Clock::now();
  double win_active0 = 0.0, win_steal0 = steal_seconds(), win_cpu0 = process_cpu_seconds(pid);
  for (;;) {
    if (pos + group > chunk.size()) {
      // Lines are generated between chunks with the clock stopped.
      const auto g0 = Clock::now();
      chunk = generate_lines(*stream, k, 256, helpers);
      if (stream->costly()) kept.insert(kept.end(), chunk.begin(), chunk.end());
      pos = 0;
      generate_s += seconds_since(g0);
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < group; ++i) send(chunk[pos++], k++);
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    const double now = active();
    if (now - win_active0 < kWindowSeconds) continue;
    // Close the window.
    const double steal = steal_seconds(), cpu = process_cpu_seconds(pid);
    win.end = latency_us.size();
    win.seconds = now - win_active0;
    win.steal_share = (steal - win_steal0) / (seconds_since(win_wall0) * nproc);
    win.server_cpu_s = cpu - win_cpu0;
    win.clean = win.steal_share <= kMaxSteal;
    clean_windows += win.clean;
    windows.push_back(win);
    if (clean_windows >= want_windows || now >= kMaxStretch * args.seconds) break;
    win = Window{};
    win.first = latency_us.size();
    win_wall0 = Clock::now();
    win_active0 = now;
    win_steal0 = steal;
    win_cpu0 = cpu;
  }
  const double active_s = active();
  const auto after = server_counters(*client, "after");
  const double peak_rss_mb = process_peak_rss_mb(pid);
  timed.sent = k - first_timed;
  const std::uint64_t sent = k;
  kept.resize(std::min<std::uint64_t>(kept.size(), sent));  // drop unsent lines
  const LineFn line_of = [&](std::uint64_t i) {
    return kept.empty() ? stream->line(i) : kept[i];
  };
  client.reset();
  const int exit_status = server->stop(60.0);
  server.reset();
  // The server saved its caches on the way out; write them back before
  // the in-process replay is timed.
  ::sync();

  // 4. The traced replay (per-layer metrics).
  std::optional<ReplayResult> rep;
  std::string trace_path;
  if (args.trace) {
    trace_path = args.work + "/trace-" + workload_name(args.workload) + "-seed" +
                 std::to_string(args.seed) + ".json";
    rep = replay(*stream, line_of, std::min<std::uint64_t>(scale.trace_requests, sent),
                 snapshot, digests, trace_path);
  }
  // 5. Correctness: reference responses, then the BILP sample.
  const auto ref_t0 = Clock::now();
  const std::vector<std::uint64_t> reference =
      reference_digests(*stream, line_of, sent, snapshot, std::min(4u, nproc));
  std::uint64_t mismatches = 0;
  std::vector<std::uint64_t> bad_lines;
  for (std::uint64_t i = 0; i < sent; ++i) {
    const bool good = ok[i] && digests[i] == reference[i];
    if (!good) {
      ++mismatches;
      if (bad_lines.size() < 5) bad_lines.push_back(i);
    }
    PhaseCount& phase = i < first_timed ? warm : timed;
    if (good) ++phase.completed;
    else ++phase.failed;
  }
  const double ref_s = seconds_since(ref_t0);
  std::size_t bilp_checked = 0, bilp_bad = 0;
  std::string bilp_detail;
  if (args.workload == Workload::ColdSolves) {
    std::vector<std::string> sample;
    for (const std::uint64_t i : bilp_sample(args.seed, sent, scale.bilp_samples))
      sample.push_back(line_of(i));
    bilp_checked = sample.size();
    bilp_bad = bilp_disagreements(sample, &bilp_detail);
  }

  const double load_after = load_average();

  // Results.
  const std::uint64_t attempted = warm.sent + timed.sent;
  const std::uint64_t failed = warm.failed + timed.failed;
  // The per-layer figures come from a twin stack beside the Dispatcher;
  // a twin that hit where the Dispatcher missed, or the reverse, timed
  // other work than the server did, so its figures are not correct.
  const bool correct = failed == 0 && bilp_bad == 0 && exit_status == 0 &&
                       (!rep || (rep->mismatches == 0 && rep->divergences == 0));
  const Summary lat = summarize(latency_us);
  // Per-window correctness, then the windows the figures come from: the
  // --seconds worth with the least steal, which are the undisturbed ones
  // unless the phase hit its stretch limit first.
  for (Window& w : windows) {
    w.requests = (w.end - w.first) * group;
    for (std::size_t i = first_timed + w.first * group; i < first_timed + w.end * group; ++i)
      w.good += ok[i] && digests[i] == reference[i];
    w.latency = summarize({latency_us.begin() + w.first, latency_us.begin() + w.end});
  }
  std::vector<Window> counted = windows;
  std::stable_sort(counted.begin(), counted.end(), [](const Window& a, const Window& b) {
    return a.steal_share < b.steal_share;
  });
  counted.resize(std::min(counted.size(), want_windows));
  const bool disturbed = clean_windows < want_windows;
  double counted_cpu_s = 0.0, counted_requests = 0.0;
  for (const Window& w : counted) {
    counted_cpu_s += w.server_cpu_s;
    counted_requests += static_cast<double>(w.requests);
  }
  const double requests_timed = static_cast<double>(timed.sent);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"throughput_rps", median_of(counted, [](const Window& w) { return w.rps(); }), "1/s"},
        {"latency_p50_us", median_of(counted, [](const Window& w) { return w.latency.p50; }), "us"},
        {"latency_p99_us", median_of(counted, [](const Window& w) { return w.latency.p99; }), "us"},
        {"ok_share", ratio(static_cast<double>(attempted - failed),
                           static_cast<double>(attempted)), "share"},
        {"setup_s", median(boots), "s"},
        {"server_cpu_us_per_req", ratio(counted_cpu_s * 1e6, counted_requests), "us"},
        {"server_peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    for (const std::string& l : layer_names()) {
      const LayerFigures& f = rep->layers.at(l);
      metrics.push_back({l + ".self_us_p50", f.self_us_p50, "us"});
      metrics.push_back({l + ".self_us_p99", f.self_us_p99, "us"});
      metrics.push_back({l + ".share", f.share, "share"});
    }
    const double hits = delta(before, after, "atcd_result_cache_hits_total");
    const double misses = delta(before, after, "atcd_result_cache_misses_total");
    const double sub_hits = delta(before, after, "atcd_subtree_cache_hits_total");
    const double sub_misses = delta(before, after, "atcd_subtree_cache_misses_total");
    const double memo_hits = delta(before, after, "atcd_session_memo_hits_total");
    const double memo_misses = delta(before, after, "atcd_session_memo_misses_total");
    metrics.push_back({"cache.hit_share", ratio(hits, hits + misses), "share"});
    metrics.push_back({"cache.evictions_per_req",
                       ratio(delta(before, after, "atcd_result_cache_evictions_total"),
                             requests_timed),
                       "1/req"});
    metrics.push_back({"subtree.hit_share", ratio(sub_hits, sub_hits + sub_misses), "share"});
    metrics.push_back({"session.memo_hit_share", ratio(memo_hits, memo_hits + memo_misses),
                       "share"});
    metrics.push_back({"persist.load_s", median(rep->load_s), "s"});
    metrics.push_back({"persist.snapshot_mb", snapshot.size() / (1024.0 * 1024.0), "MB"});
    // In-process time of a latency sample: its group's requests summed,
    // over the timed lines of the replayed prefix.
    std::vector<double> inproc;
    for (std::size_t i = first_timed; i + group <= rep->inproc_us.size(); i += group) {
      double sum = 0.0;
      for (std::size_t j = 0; j < group; ++j) sum += rep->inproc_us[i + j];
      inproc.push_back(sum);
    }
    // The socket samples of the same lines the replay ran (its prefix).
    const std::size_t prefix_samples =
        rep->requests > first_timed ? (rep->requests - first_timed) / group : 0;
    const std::vector<double> socket(
        latency_us.begin(),
        latency_us.begin() + std::min(prefix_samples, latency_us.size()));
    metrics.push_back({"net.overhead_us_p50",
                       exact_quantile(socket, 0.5) - exact_quantile(inproc, 0.5), "us"});
    metrics.push_back({"unattributed.share", rep->unattributed_share, "share"});
    metrics.push_back({"trace.overhead_share",
                       ratio(rep->traced_s - rep->untraced_s, rep->untraced_s), "share"});
  }

  Obj env;
  env.n("nproc", nproc)
      .n("load_before", load_before)
      .n("load_after", load_after)
      .b("busy_before", load_before > nproc / 2.0)
      .s("compiler", PERFBENCH_COMPILER)
      .s("build_type", PERFBENCH_BUILD_TYPE)
      .s("source", args.source);
  std::string boots_json = "[";
  for (std::size_t i = 0; i < boots.size(); ++i) boots_json += (i ? "," : "") + num(boots[i]);
  boots_json += "]";
  Obj phases;
  phases.raw("prep", Obj().n("sent", prep.sent).n("completed", prep.completed)
                         .n("failed", prep.failed).n("seconds", prep_s).str())
      .raw("setup", setup_count.json())
      .raw("warmup", warm.json())
      .raw("timed", timed.json())
      .n("timed_active_s", active_s)
      .n("windows_clean", static_cast<double>(clean_windows))
      .n("windows_wanted", static_cast<double>(want_windows))
      .b("disturbed", disturbed)
      .n("generate_s", generate_s)
      .n("reference_s", ref_s);
  Obj report;
  report.s("workload", workload_name(args.workload))
      .n("seed", static_cast<double>(args.seed))
      .n("seconds", args.seconds)
      .b("trace", args.trace)
      .b("tiny", args.tiny)
      .raw("env", env.str())
      .raw("phases", phases.str())
      .raw("latency_us", summary_json(lat))
      .n("latency_group", static_cast<double>(group))
      .n("throughput_whole_rps", static_cast<double>(timed.completed) / active_s)
      .raw("windows", windows_json(windows))
      .raw("setup_boots_s", boots_json)
      .n("snapshot_bytes", static_cast<double>(snapshot.size()))
      .n("server_exit_status", exit_status)
      .n("mismatches", static_cast<double>(mismatches))
      .n("bilp_checked", static_cast<double>(bilp_checked))
      .n("bilp_disagreements", static_cast<double>(bilp_bad));
  if (!bad_lines.empty()) {
    std::string bl = "[";
    for (std::size_t i = 0; i < bad_lines.size(); ++i)
      bl += (i ? "," : "") + std::to_string(bad_lines[i]);
    report.raw("first_bad_lines", bl + "]");
  }
  if (!bilp_detail.empty()) report.s("bilp_detail", bilp_detail.substr(0, 2000));
  if (rep) {
    Obj r;
    r.n("requests", static_cast<double>(rep->requests))
        .n("untraced_s", rep->untraced_s)
        .n("traced_s", rep->traced_s)
        .raw("inproc_us", summary_json(summarize(rep->inproc_us)))
        .n("twin_divergences", static_cast<double>(rep->divergences))
        .n("render_bytes", static_cast<double>(rep->render_bytes))
        .n("mismatches", static_cast<double>(rep->mismatches))
        .s("trace_file", trace_path);
    Obj spans;
    for (const auto& [name, f] : rep->layers) spans.n(name, static_cast<double>(f.spans));
    r.raw("span_counts", spans.str());
    report.raw("replay", r.str());
  }
  std::printf("%s\n", Obj().raw("report", report.str()).str().c_str());

  Obj mj;
  for (const Metric& m : metrics)
    mj.raw(m.name, Obj().n("value", m.value).s("unit", m.unit).str());
  std::printf("%s\n", Obj()
                          .b("correct", correct)
                          .n("attempted", static_cast<double>(attempted))
                          .n("failed", static_cast<double>(failed))
                          .raw("metrics", mj.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atcd_perfbench: %s\n", e.what());
    return 2;
  }
}
