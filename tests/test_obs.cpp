/// Tests for the observability layer (src/obs/): histogram bucket math
/// and exact-rank percentiles, sharded counter merges (single- and
/// multi-threaded — the tsan job runs these), registry exposition
/// determinism and kind checking, per-request trace spans through the
/// full dispatch stack, and the two invariants the layer guarantees:
/// tracing never changes solve results, and untraced responses are
/// byte-identical no matter how the stack is threaded or instrumented.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatcher.hpp"
#include "api/json.hpp"
#include "api/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace atcd {
namespace {

using namespace atcd::api;

const char* kModel =
    "bas a cost=1 damage=2\n"
    "bas b cost=4 damage=1\n"
    "or r = a, b damage=10\n";

Request solve_request(bool trace = false) {
  Request req;
  req.op = SolveRequest{{engine::Problem::Cdpf, 0.0, false, "", kModel}};
  req.trace = trace;
  return req;
}

// ---------------------------------------------------------------------------
// Histogram bucket math.
// ---------------------------------------------------------------------------

TEST(Histogram, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < obs::Histogram::kSub; ++v) {
    EXPECT_EQ(obs::Histogram::bucket_of(v), v);
    EXPECT_EQ(obs::Histogram::bucket_upper(v), v);
  }
}

TEST(Histogram, EveryValueFallsInsideItsBucket) {
  // Around every octave boundary the invariant is
  //   upper(bucket(v)-1) < v <= upper(bucket(v)).
  std::vector<std::uint64_t> probes;
  for (unsigned exp = 0; exp < 63; ++exp) {
    const std::uint64_t p = std::uint64_t{1} << exp;
    for (std::uint64_t d : {std::uint64_t{0}, std::uint64_t{1}, p / 2, p - 1})
      probes.push_back(p + d);
  }
  probes.push_back(~std::uint64_t{0});
  for (std::uint64_t v : probes) {
    const std::size_t b = obs::Histogram::bucket_of(v);
    ASSERT_LT(b, obs::Histogram::kBuckets) << v;
    EXPECT_LE(v, obs::Histogram::bucket_upper(b)) << v;
    if (b > 0) EXPECT_GT(v, obs::Histogram::bucket_upper(b - 1)) << v;
  }
}

TEST(Histogram, BucketUppersAreStrictlyIncreasing) {
  for (std::size_t b = 1; b < obs::Histogram::kBuckets; ++b)
    EXPECT_GT(obs::Histogram::bucket_upper(b),
              obs::Histogram::bucket_upper(b - 1))
        << b;
}

TEST(Histogram, RelativeBucketErrorIsBounded) {
  // Log-scale with 8 sub-buckets per octave: the bucket's upper edge
  // overshoots any member by <= 12.5%.
  for (std::uint64_t v = obs::Histogram::kSub; v < 100000;
       v += 1 + v / 16) {
    const std::uint64_t up =
        obs::Histogram::bucket_upper(obs::Histogram::bucket_of(v));
    EXPECT_LE(static_cast<double>(up - v) / static_cast<double>(v), 0.125)
        << v;
  }
}

TEST(Histogram, ExactRankPercentiles) {
  obs::Histogram h;
  EXPECT_EQ(h.percentile(0.50), 0.0);  // empty
  // 1..100: every value below kSub*2^... small values land in exact or
  // near-exact buckets, so the quantiles are tightly pinned.
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  // Rank 50 holds sample 50 (bucket [48,51] at this resolution).
  EXPECT_GE(h.percentile(0.50), 50.0);
  EXPECT_LE(h.percentile(0.50), 51.0);
  EXPECT_GE(h.percentile(0.99), 99.0);
  EXPECT_LE(h.percentile(0.99), 103.0);
  // q=0 clamps to rank 1, q=1 to rank n.
  EXPECT_LE(h.percentile(0.0), 1.0);
  EXPECT_GE(h.percentile(1.0), 100.0);
}

TEST(Histogram, SingleSampleDigest) {
  obs::Histogram h;
  h.record(7);  // exact bucket
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 7u);
  EXPECT_EQ(h.percentile(0.50), 7.0);
  EXPECT_EQ(h.percentile(0.99), 7.0);
}

TEST(Histogram, IncludedPartsReportInTheTotal) {
  obs::Histogram total, a, b;
  total.include(a);
  total.include(b);
  total.include(a);  // no double count
  a.record(3);
  b.record(100);
  b.record(100);
  total.record(5);
  EXPECT_EQ(total.count(), 4u);
  EXPECT_EQ(total.sum(), 208u);
  EXPECT_EQ(total.percentile(0.25), 3.0);
  EXPECT_EQ(total.percentile(1.0), obs::Histogram::bucket_upper(
                                       obs::Histogram::bucket_of(100)));
  EXPECT_EQ(a.count(), 1u);  // parts are unaffected
}

// ---------------------------------------------------------------------------
// Counters and gauges.
// ---------------------------------------------------------------------------

TEST(Counter, MergesAcrossShards) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentAddsAreLossFree) {
  // More threads than either instrument has owned shards, in waves, so
  // owned shards, the shared shard and slots freed by exited threads
  // are all written.
  obs::Counter c;
  obs::Histogram h;
  constexpr std::size_t kWaves = 3, kThreads = 20, kPer = 5000;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t)
      workers.emplace_back([&] {
        for (std::size_t i = 0; i < kPer; ++i) {
          c.add();
          h.record(i & 1023);
        }
      });
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(c.value(), kWaves * kThreads * kPer);
  EXPECT_EQ(h.count(), kWaves * kThreads * kPer);
}

TEST(Gauge, LastSetWins) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-2.0);
  EXPECT_EQ(g.value(), -2.0);
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(Registry, GetOrCreateReturnsStableInstruments) {
  obs::Registry r;
  obs::Counter& a = r.counter("x_total");
  a.add(3);
  EXPECT_EQ(&r.counter("x_total"), &a);
  EXPECT_EQ(r.counter("x_total").value(), 3u);
}

TEST(Registry, KindMismatchThrows) {
  obs::Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), std::logic_error);
  EXPECT_THROW(r.histogram("x"), std::logic_error);
  r.histogram("h");
  EXPECT_THROW(r.counter("h"), std::logic_error);
}

TEST(Registry, JsonExpositionIsSortedAndDeterministic) {
  obs::Registry r;
  r.counter("b_total").add(2);
  r.counter("a_total").add(1);
  r.gauge("g").set(5);
  r.histogram("lat_micros").record(6);
  const std::string j = r.to_json();
  EXPECT_EQ(j,
            "{\"counters\":{\"a_total\":1,\"b_total\":2},"
            "\"gauges\":{\"g\":5},"
            "\"histograms\":{\"lat_micros\":{\"count\":1,\"sum\":6,"
            "\"p50\":6,\"p95\":6,\"p99\":6}}}");
  EXPECT_EQ(j, r.to_json());  // pure function of the instrument values
  // The exposition is valid JSON for the API's own parser.
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(j, &v, &err)) << err;
}

TEST(Registry, PrometheusExpositionHasTypedSamples) {
  obs::Registry r;
  r.counter("a_total").add(7);
  r.gauge("g").set(2.5);
  r.histogram("lat_micros").record(6);
  const std::string text = r.to_prometheus();
  EXPECT_NE(text.find("# TYPE a_total counter\na_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE g gauge\ng 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_micros summary\n"), std::string::npos);
  EXPECT_NE(text.find("lat_micros{quantile=\"0.99\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_micros_sum 6\n"), std::string::npos);
  EXPECT_NE(text.find("lat_micros_count 1\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans through the dispatch stack.
// ---------------------------------------------------------------------------

TEST(Trace, SpansNestInPreOrderWithDepths) {
  obs::Trace tr;
  {
    obs::TraceActivation act(&tr);
    obs::SpanScope outer("outer");
    {
      obs::SpanScope inner("inner");
      obs::trace_fact("widgets", 2);
      obs::trace_fact("widgets", 3);
      obs::trace_fact_max("peak", 7);
      obs::trace_fact_max("peak", 4);
    }
    obs::SpanScope sibling("sibling");
  }
  ASSERT_EQ(tr.spans().size(), 3u);
  EXPECT_EQ(tr.spans()[0].name, "outer");
  EXPECT_EQ(tr.spans()[0].depth, 0u);
  EXPECT_EQ(tr.spans()[1].name, "inner");
  EXPECT_EQ(tr.spans()[1].depth, 1u);
  EXPECT_EQ(tr.spans()[2].name, "sibling");
  EXPECT_EQ(tr.spans()[2].depth, 1u);
  ASSERT_EQ(tr.facts().size(), 2u);
  EXPECT_EQ(tr.facts()[0], (std::pair<std::string, std::uint64_t>{
                               "widgets", 5}));
  EXPECT_EQ(tr.facts()[1],
            (std::pair<std::string, std::uint64_t>{"peak", 7}));
}

TEST(Trace, InactiveScopesRecordNothing) {
  obs::SpanScope s("ignored");
  obs::trace_fact("ignored", 1);
  EXPECT_EQ(obs::current_trace(), nullptr);
}

std::set<std::string> span_names(const TracePayload& tp) {
  std::set<std::string> names;
  for (const auto& s : tp.spans) names.insert(s.name);
  return names;
}

std::uint64_t fact_of(const TracePayload& tp, const std::string& name) {
  for (const auto& [k, v] : tp.facts)
    if (k == name) return v;
  return 0;
}

TEST(Trace, DispatchThreadsSpansThroughEveryLayer) {
  Dispatcher d;
  const Response cold = d.dispatch(solve_request(/*trace=*/true));
  ASSERT_EQ(cold.code, ErrorCode::Ok);
  ASSERT_TRUE(cold.trace.has_value());
  // Pre-order: the dispatch span is first and outermost, everything
  // else nests strictly inside it.
  ASSERT_FALSE(cold.trace->spans.empty());
  EXPECT_EQ(cold.trace->spans[0].name, "dispatch");
  EXPECT_EQ(cold.trace->spans[0].depth, 0u);
  for (std::size_t i = 1; i < cold.trace->spans.size(); ++i)
    EXPECT_GT(cold.trace->spans[i].depth, 0u);
  const auto names = span_names(*cold.trace);
  EXPECT_TRUE(names.count("service.solve"));
  EXPECT_TRUE(names.count("service.parse"));
  EXPECT_TRUE(names.count("engine.solve"));
  // A cold solve misses the result cache and sweeps the arena.
  EXPECT_GE(fact_of(*cold.trace, "result_cache_misses"), 1u);
  EXPECT_GE(fact_of(*cold.trace, "arena_nodes_swept"), 3u);
  EXPECT_GE(fact_of(*cold.trace, "arena_max_front"), 1u);

  // The warm repeat hits the cache and never reaches the engine.
  const Response warm = d.dispatch(solve_request(/*trace=*/true));
  ASSERT_EQ(warm.code, ErrorCode::Ok);
  ASSERT_TRUE(warm.trace.has_value());
  EXPECT_GE(fact_of(*warm.trace, "result_cache_hits"), 1u);
  EXPECT_FALSE(span_names(*warm.trace).count("engine.solve"));
}

TEST(Trace, SessionResolveRecordsMemoFacts) {
  Dispatcher d;
  Request open;
  open.op = SessionOpenRequest{{engine::Problem::Cdpf, 0.0, false, "",
                                kModel}};
  const Response opened = d.dispatch(open);
  ASSERT_EQ(opened.code, ErrorCode::Ok);
  const auto sid = std::get<SessionOpenedPayload>(opened.payload).session;

  Request resolve;
  resolve.op = SessionResolveRequest{sid};
  resolve.trace = true;
  const Response r = d.dispatch(resolve);
  ASSERT_EQ(r.code, ErrorCode::Ok);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_TRUE(span_names(*r.trace).count("session.resolve"));
  EXPECT_GE(fact_of(*r.trace, "session_memo_stores"), 1u);
}

TEST(Trace, TracingNeverChangesSolveResults) {
  Dispatcher d;
  Response traced = d.dispatch(solve_request(/*trace=*/true));
  Dispatcher d2;
  const Response plain = d2.dispatch(solve_request(/*trace=*/false));
  ASSERT_EQ(traced.code, ErrorCode::Ok);
  EXPECT_FALSE(plain.trace.has_value());
  // Identical payload bytes once the trace block is dropped.
  traced.trace.reset();
  EXPECT_EQ(encode_response(traced, false), encode_response(plain, false));
}

/// \p line with the value of its "cache" disposition blanked.  That one
/// value is documented as scheduling-dependent (api/server.hpp): with
/// several workers, a duplicate of an in-flight request may read
/// "coalesced" where one worker reads "hit".
std::string blank_cache_disposition(std::string line) {
  const std::string key = "\"cache\":\"";
  const std::size_t at = line.find(key);
  if (at != std::string::npos) {
    const std::size_t value = at + key.size();
    line.erase(value, line.find('"', value) - value);
  }
  return line;
}

TEST(Trace, UntracedResponsesAreByteIdenticalAcrossThreadCounts) {
  // The same pipelined workload on 1 and 4 worker threads; with tracing
  // off, the response bytes (sorted by id) must not depend on threading
  // or on anything the instruments recorded — except the cache
  // disposition, blanked before comparing.
  std::string script;
  for (int i = 0; i < 6; ++i) {
    Request req = solve_request();
    req.id = std::to_string(i);
    script += encode_request(req) + "\n";
  }
  std::vector<std::vector<std::string>> outputs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Dispatcher d;
    std::istringstream in(script);
    std::ostringstream out;
    JsonServeOptions opt;
    opt.threads = threads;
    serve_json(in, out, d, opt);
    std::istringstream lines(out.str());
    std::vector<std::string> sorted;
    std::string line;
    while (std::getline(lines, line))
      sorted.push_back(blank_cache_disposition(line));
    std::sort(sorted.begin(), sorted.end());
    outputs.push_back(std::move(sorted));
    EXPECT_EQ(out.str().find("\"trace\""), std::string::npos);
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

// ---------------------------------------------------------------------------
// The metrics operation and the stats latency digest.
// ---------------------------------------------------------------------------

TEST(MetricsOp, ExposesCoreInstrumentsOnEveryTransport) {
  Dispatcher d;
  ASSERT_EQ(d.dispatch(solve_request()).code, ErrorCode::Ok);

  Request req;
  req.op = MetricsRequest{};
  const Response resp = d.dispatch(req);
  ASSERT_EQ(resp.code, ErrorCode::Ok);
  const auto& p = std::get<MetricsPayload>(resp.payload);
  // Core instruments present with non-zero values in both renderings.
  EXPECT_NE(p.json.find("\"atcd_api_requests_total\":2"),
            std::string::npos)
      << p.json;
  EXPECT_NE(p.json.find("\"atcd_api_solves_total\":1"), std::string::npos);
  EXPECT_NE(p.json.find("\"atcd_result_cache_misses_total\":1"),
            std::string::npos);
  EXPECT_NE(p.json.find("\"atcd_api_request_micros\""), std::string::npos);
  EXPECT_NE(p.text.find("# TYPE atcd_api_requests_total counter\n"
                        "atcd_api_requests_total 2\n"),
            std::string::npos)
      << p.text;
  EXPECT_NE(p.text.find("atcd_result_cache_entries 1\n"),
            std::string::npos);

  // JSON wire round trip is byte-stable.
  const std::string once = encode_response(resp, false);
  const Decoded<Response> dec = decode_response(once);
  ASSERT_EQ(dec.code, ErrorCode::Ok) << dec.error;
  EXPECT_EQ(encode_response(dec.value, false), once);
}

TEST(MetricsOp, RequestRoundTripsAndRejectsBadTraceFlag) {
  Request req;
  req.id = "9";
  req.op = MetricsRequest{};
  req.trace = true;
  const std::string wire = encode_request(req);
  EXPECT_EQ(wire, "{\"v\":1,\"id\":\"9\",\"op\":\"metrics\","
                  "\"trace\":true}");
  const Decoded<Request> dec = decode_request(wire);
  ASSERT_EQ(dec.code, ErrorCode::Ok) << dec.error;
  EXPECT_TRUE(dec.value.trace);
  EXPECT_TRUE(std::holds_alternative<MetricsRequest>(dec.value.op));
  EXPECT_EQ(encode_request(dec.value), wire);

  const Decoded<Request> bad =
      decode_request("{\"v\":1,\"op\":\"stats\",\"trace\":1}");
  EXPECT_EQ(bad.code, ErrorCode::MalformedRequest);
}

TEST(StatsLatency, DigestCoversEveryDispatchedRequest) {
  Dispatcher d;
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(d.dispatch(solve_request()).code, ErrorCode::Ok);
  const StatsPayload s = d.stats();
  EXPECT_EQ(s.latency.count, 3u);
  EXPECT_GE(s.latency.p99, s.latency.p50);
  EXPECT_GE(s.latency.sum_micros, s.latency.count - 1);

  // Wall-clock data stays out of the deterministic (timing-off) wire
  // encoding and rides with it when timing echo is on.
  Response resp;
  resp.payload = s;
  EXPECT_EQ(encode_response(resp, false).find("latency"),
            std::string::npos);
  EXPECT_NE(encode_response(resp, true).find("\"latency\":{\"count\":3"),
            std::string::npos);
}

TEST(StatsLatency, RecordMetricsOffKeepsDispatchUninstrumented) {
  Dispatcher::Options opt;
  opt.record_metrics = false;
  Dispatcher d(std::move(opt));
  ASSERT_EQ(d.dispatch(solve_request()).code, ErrorCode::Ok);
  EXPECT_EQ(d.stats().latency.count, 0u);
  EXPECT_EQ(d.metrics().counter("atcd_api_requests_total").value(), 0u);
  // Layers below dispatch() still record into the shared registry.
  EXPECT_EQ(d.metrics().counter("atcd_result_cache_misses_total").value(),
            1u);
}

}  // namespace
}  // namespace atcd
