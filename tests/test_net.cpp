/// Tests for the network transport (src/net/): loopback JSON-lines
/// serving with byte parity against the stdin transport on twin
/// dispatchers, multi-client pipelining with out-of-order id matching,
/// connection caps, malformed and truncated HTTP/JSON frames answered
/// with typed errors (never a crash), SIGTERM/SIGINT graceful drain
/// delivering the structured shutdown response as the final line of
/// every open connection, and the shard-by-hash router over two
/// in-process workers (session ids, typed errors, caps, drain, merged
/// stats and metrics).

#include <gtest/gtest.h>

#include <csignal>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatcher.hpp"
#include "api/json.hpp"
#include "api/server.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"

namespace atcd {
namespace {

using namespace atcd::api;

const char* kDetModel =
    "bas a cost=1 damage=2\n"
    "bas b cost=4 damage=1\n"
    "or r = a, b damage=10\n";

std::string solve_line(const std::string& id, double bound = 0.0,
                       bool has_bound = false) {
  Request r;
  r.id = id;
  SolveRequest s;
  s.spec = {has_bound ? engine::Problem::Dgc : engine::Problem::Cdpf, bound,
            has_bound, "", kDetModel};
  r.op = std::move(s);
  return encode_request(r);
}

std::string shutdown_line(const std::string& id) {
  Request r;
  r.id = id;
  r.op = ShutdownRequest{};
  return encode_request(r);
}

/// Sweep big enough to still be in flight when a drain lands.
std::string sweep_line(const std::string& id) {
  Request r;
  r.id = id;
  AnalyzeSweepRequest a;
  a.problem = engine::Problem::Dgc;
  a.axes = {"cost:a:1:8:40", "damage:b:1:8:40"};
  a.bound = 6.0;
  a.has_bound = true;
  a.model = kDetModel;
  r.op = std::move(a);
  return encode_request(r);
}

std::string id_of(const std::string& response) {
  const Decoded<Response> dec = decode_response(response);
  return dec.code == ErrorCode::Ok ? dec.value.id : std::string();
}

bool is_shutdown(const std::string& response) {
  return response.find("\"kind\":\"shutdown\"") != std::string::npos;
}

/// Blanks the scheduling-dependent cache-disposition member so
/// cross-connection runs compare byte-stably (the payload values are
/// identical either way).
std::string normalize(std::string line) {
  const std::string key = "\"cache\":\"";
  const std::size_t p = line.find(key);
  if (p == std::string::npos) return line;
  const std::size_t v = p + key.size();
  const std::size_t q = line.find('"', v);
  return line.substr(0, v) + "x" + line.substr(q);
}

struct ServerFixture {
  explicit ServerFixture(net::ServerOptions opt = {}) : server(dispatcher, opt) {
    std::string err;
    ok = server.start(&err);
    EXPECT_TRUE(ok) << err;
  }
  ~ServerFixture() {
    if (ok) {
      server.request_drain();
      server.wait();
    }
  }
  api::Dispatcher dispatcher;
  net::Server server;
  bool ok = false;
};

net::Client connect_to(std::uint16_t port) {
  std::string err;
  net::Client c("127.0.0.1", port, &err);
  EXPECT_TRUE(c.valid()) << err;
  return c;
}

net::Client connect_to(const net::Server& server) {
  return connect_to(server.port());
}

// ---------------------------------------------------------------------------
// JSON-lines over TCP.
// ---------------------------------------------------------------------------

TEST(NetServe, LockstepParityWithStdinTransport) {
  // The same script through a socket and through serve_json on a twin
  // dispatcher: every response line must be byte-identical (single
  // lockstep connection, so even cache dispositions are deterministic).
  std::vector<std::string> script = {
      solve_line("1"), solve_line("2", 3.0, true), solve_line("3"),
      sweep_line("4"), shutdown_line("5")};

  std::string joined;
  for (const auto& line : script) joined += line + "\n";
  api::Dispatcher twin;
  std::istringstream in(joined);
  std::ostringstream out;
  serve_json(in, out, twin, {});
  std::vector<std::string> expected;
  {
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) expected.push_back(line);
  }

  ServerFixture fx;
  net::Client client = connect_to(fx.server);
  std::vector<std::string> got;
  std::string resp;
  for (const auto& line : script) {
    ASSERT_TRUE(client.request(line, &resp));
    got.push_back(resp);
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "line " << i;
  EXPECT_TRUE(is_shutdown(got.back()));
}

TEST(NetServe, PipelinedOutOfOrderIdMatching) {
  net::ServerOptions opt;
  opt.serve.threads = 4;
  ServerFixture fx(opt);
  net::Client client = connect_to(fx.server);

  // Fire 12 requests before reading anything; responses may come back
  // in any order but must cover exactly the sent ids.
  const std::size_t n = 12;
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(client.send_line(solve_line(std::to_string(i), 1.0 + i, true)));
  std::map<std::string, std::string> by_id;
  std::string resp;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(client.read_line(&resp));
    by_id[id_of(resp)] = resp;
  }
  ASSERT_EQ(by_id.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = by_id.find(std::to_string(i));
    ASSERT_NE(it, by_id.end()) << "missing id " << i;
    EXPECT_EQ(decode_response(it->second).value.code, ErrorCode::Ok);
  }
  client.half_close();
  ASSERT_TRUE(client.read_line(&resp));
  EXPECT_TRUE(is_shutdown(resp));
  EXPECT_FALSE(client.read_line(&resp));  // then EOF
}

TEST(NetServe, MultiClientParityOnTwinDispatchers) {
  const std::size_t conns = 4, per_conn = 10;
  const auto script_line = [](std::size_t c, std::size_t i) {
    return solve_line("c" + std::to_string(c) + "-" + std::to_string(i),
                      1.0 + static_cast<double>((c * per_conn + i) % 5),
                      i % 2 == 0);
  };

  // Baseline: every script through the stdin transport on one twin
  // dispatcher (same shared caches as the server's).
  api::Dispatcher twin;
  std::map<std::string, std::string> expected;
  for (std::size_t c = 0; c < conns; ++c) {
    std::string joined;
    for (std::size_t i = 0; i < per_conn; ++i)
      joined += script_line(c, i) + "\n";
    std::istringstream in(joined);
    std::ostringstream out;
    serve_json(in, out, twin, {});
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line))
      if (!is_shutdown(line)) expected[id_of(line)] = normalize(line);
  }

  ServerFixture fx;
  std::map<std::string, std::string> got;
  std::mutex mu;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < conns; ++c)
    clients.emplace_back([&, c] {
      net::Client client = connect_to(fx.server);
      std::string resp;
      for (std::size_t i = 0; i < per_conn; ++i) {
        ASSERT_TRUE(client.request(script_line(c, i), &resp));
        std::lock_guard<std::mutex> lock(mu);
        got[id_of(resp)] = normalize(resp);
      }
    });
  for (auto& t : clients) t.join();

  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [id, line] : expected) {
    const auto it = got.find(id);
    ASSERT_NE(it, got.end()) << "missing id " << id;
    EXPECT_EQ(it->second, line) << "id " << id;
  }
}

TEST(NetServe, MalformedJsonGetsTypedErrorAndConnectionSurvives) {
  ServerFixture fx;
  net::Client client = connect_to(fx.server);
  std::string resp;
  ASSERT_TRUE(client.request("this is not json", &resp));
  EXPECT_EQ(decode_response(resp).value.code, ErrorCode::MalformedRequest);
  ASSERT_TRUE(client.request("{\"v\":1,\"op\":\"nope\"}", &resp));
  EXPECT_EQ(decode_response(resp).value.code, ErrorCode::UnknownOperation);
  // The connection keeps serving after both.
  ASSERT_TRUE(client.request(solve_line("after"), &resp));
  EXPECT_EQ(decode_response(resp).value.code, ErrorCode::Ok);
  EXPECT_EQ(id_of(resp), "after");
}

TEST(NetServe, OversizedLineGetsCapacityError) {
  net::ServerOptions opt;
  opt.serve.max_line_bytes = 256;
  ServerFixture fx(opt);
  net::Client client = connect_to(fx.server);
  std::string resp;
  ASSERT_TRUE(client.request(std::string(4096, 'x'), &resp));
  EXPECT_EQ(decode_response(resp).value.code, ErrorCode::Capacity);
  // Under-cap traffic still flows on the same connection.
  const std::string ok_line = solve_line("ok");
  ASSERT_LT(ok_line.size(), 256u);
  ASSERT_TRUE(client.request(ok_line, &resp));
  EXPECT_EQ(decode_response(resp).value.code, ErrorCode::Ok);
}

TEST(NetServe, ConnectionCapRejectsWithTypedError) {
  net::ServerOptions opt;
  opt.max_conns = 2;
  ServerFixture fx(opt);
  net::Client a = connect_to(fx.server);
  net::Client b = connect_to(fx.server);
  std::string resp;
  ASSERT_TRUE(a.request(solve_line("a"), &resp));
  ASSERT_TRUE(b.request(solve_line("b"), &resp));
  // Both slots taken: the third client reads one typed capacity error,
  // then EOF.
  net::Client c = connect_to(fx.server);
  ASSERT_TRUE(c.read_line(&resp));
  EXPECT_EQ(decode_response(resp).value.code, ErrorCode::Capacity);
  EXPECT_FALSE(c.read_line(&resp));
  // The earlier connections were not disturbed.
  ASSERT_TRUE(a.request(solve_line("a2"), &resp));
  EXPECT_EQ(decode_response(resp).value.code, ErrorCode::Ok);
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

TEST(NetDrain, CompletesInFlightAndDeliversShutdownOnEveryConnection) {
  // The "heavy" request blocks in dispatch until the drain has reached
  // every connection, so it is in flight at drain time on every run,
  // however the host schedules the workers.
  api::Dispatcher dispatcher;
  std::mutex mu;
  std::condition_variable cv;
  bool heavy_started = false, release_heavy = false;
  const api::DispatchFn dispatch = [&](const Request& r) {
    if (r.id == "heavy") {
      std::unique_lock<std::mutex> lock(mu);
      heavy_started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release_heavy; });
    }
    return dispatcher.dispatch(r);
  };
  net::ServerOptions opt;
  opt.serve.threads = 2;  // pipelined, so the quick solve passes it
  net::Server server(dispatcher.metrics(), opt, [&](net::BufferedFd& io) {
    net::TcpLineTransport transport(io);
    return api::serve_lines(transport, dispatch, dispatcher.metrics(),
                            opt.serve);
  });
  const auto release = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      release_heavy = true;
    }
    cv.notify_all();
  };
  // Released before the server's destructor joins, also when an
  // assertion below returns early.
  struct Guard {
    std::function<void()> on_exit;
    ~Guard() { on_exit(); }
  } release_on_exit{release};
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // One busy connection: the held sweep followed by a quick solve.
  net::Client busy = connect_to(server);
  ASSERT_TRUE(busy.send_line(sweep_line("heavy")));
  ASSERT_TRUE(busy.send_line(solve_line("quick")));
  std::string resp;
  ASSERT_TRUE(busy.read_line(&resp));
  EXPECT_EQ(id_of(resp), "quick");
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return heavy_started; });
  }

  // Two idle connections (established: each did one exchange).
  net::Client idle1 = connect_to(server);
  net::Client idle2 = connect_to(server);
  ASSERT_TRUE(idle1.request(solve_line("i1"), &resp));
  ASSERT_TRUE(idle2.request(solve_line("i2"), &resp));

  server.request_drain();

  // Every idle connection's final line is the shutdown response.
  for (net::Client* c : {&idle1, &idle2}) {
    ASSERT_TRUE(c->read_line(&resp));
    EXPECT_TRUE(is_shutdown(resp));
    EXPECT_FALSE(c->read_line(&resp));
  }

  // The drain has begun; let the sweep finish.  The busy connection
  // first gets the completed in-flight sweep, then the structured
  // shutdown response as its final line.
  release();
  ASSERT_TRUE(busy.read_line(&resp));
  EXPECT_EQ(id_of(resp), "heavy");
  EXPECT_EQ(decode_response(resp).value.code, ErrorCode::Ok);
  ASSERT_TRUE(busy.read_line(&resp));
  EXPECT_TRUE(is_shutdown(resp));
  EXPECT_FALSE(busy.read_line(&resp));

  server.wait();
  EXPECT_EQ(server.open_connections(), 0u);
}

TEST(NetDrain, SignalTriggersDrain) {
  api::Dispatcher dispatcher;
  net::Server server(dispatcher, {});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  server.install_signal_handlers();

  net::Client client = connect_to(server);
  std::string resp;
  ASSERT_TRUE(client.request(solve_line("sig"), &resp));
  EXPECT_EQ(decode_response(resp).value.code, ErrorCode::Ok);

  std::raise(SIGTERM);
  ASSERT_TRUE(client.read_line(&resp));
  EXPECT_TRUE(is_shutdown(resp));
  EXPECT_FALSE(client.read_line(&resp));
  server.wait();
  EXPECT_EQ(server.handled(), 1u);
}

// ---------------------------------------------------------------------------
// HTTP transport.
// ---------------------------------------------------------------------------

net::ServerOptions http_options() {
  net::ServerOptions opt;
  opt.http = true;
  return opt;
}

TEST(NetHttp, PostSolveAndBuiltinGets) {
  ServerFixture fx(http_options());
  net::Client client = connect_to(fx.server);
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.http_post("/api/v1", solve_line("h1"), &status, &body));
  EXPECT_EQ(status, 200);
  const Decoded<Response> dec = decode_response(body);
  EXPECT_EQ(dec.code, ErrorCode::Ok);
  EXPECT_EQ(dec.value.id, "h1");

  // Keep-alive: the same connection serves the built-in GETs.
  ASSERT_TRUE(client.http_get("/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  ASSERT_TRUE(client.http_get("/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("atcd_net_accepted_total"), std::string::npos);
}

TEST(NetHttp, TypedStatusMapping) {
  ServerFixture fx(http_options());
  int status = 0;
  std::string body;

  {  // malformed envelope -> 400 with a typed JSON body
    net::Client c = connect_to(fx.server);
    ASSERT_TRUE(c.http_post("/api/v1", "not json", &status, &body));
    EXPECT_EQ(status, 400);
    EXPECT_EQ(decode_response(body).value.code, ErrorCode::MalformedRequest);
  }
  {  // unknown path -> 404 (connection survives, it was a clean frame)
    net::Client c = connect_to(fx.server);
    ASSERT_TRUE(c.http_get("/nope", &status, &body));
    EXPECT_EQ(status, 404);
    EXPECT_EQ(decode_response(body).value.code, ErrorCode::UnknownOperation);
    ASSERT_TRUE(c.http_get("/healthz", &status, &body));
    EXPECT_EQ(status, 200);
  }
  {  // no such session -> 404 through the dispatcher's own taxonomy
    net::Client c = connect_to(fx.server);
    Request r;
    r.id = "s";
    SessionResolveRequest res;
    res.session = 424242;
    r.op = res;
    ASSERT_TRUE(c.http_post("/api/v1", encode_request(r), &status, &body));
    EXPECT_EQ(status, 404);
    EXPECT_EQ(decode_response(body).value.code, ErrorCode::NoSuchSession);
  }
}

TEST(NetHttp, MalformedFramesAreTypedNeverFatal) {
  ServerFixture fx(http_options());
  int status = 0;
  std::string body;

  {  // garbage request line -> 400, connection closed
    net::Client c = connect_to(fx.server);
    ASSERT_TRUE(c.send_line("GARBAGE"));
    ASSERT_TRUE(c.send_line(""));
    std::string resp;
    ASSERT_TRUE(c.read_line(&resp));
    EXPECT_NE(resp.find("400"), std::string::npos);
  }
  {  // POST without Content-Length -> 411
    net::Client c = connect_to(fx.server);
    ASSERT_TRUE(c.send_line("POST /api/v1 HTTP/1.1"));
    ASSERT_TRUE(c.send_line(""));
    std::string resp;
    ASSERT_TRUE(c.read_line(&resp));
    EXPECT_NE(resp.find("411"), std::string::npos);
  }
  {  // wrong method -> 405
    net::Client c = connect_to(fx.server);
    ASSERT_TRUE(c.send_line("DELETE /api/v1 HTTP/1.1"));
    ASSERT_TRUE(c.send_line(""));
    std::string resp;
    ASSERT_TRUE(c.read_line(&resp));
    EXPECT_NE(resp.find("405"), std::string::npos);
  }
  {  // truncated frame: headers cut mid-way, then close
    net::Client c = connect_to(fx.server);
    ASSERT_TRUE(c.send_line("POST /api/v1 HTTP/1.1"));
    ASSERT_TRUE(c.send_line("Content-Length: 100"));
    c.half_close();  // body never arrives
    std::string resp;
    EXPECT_FALSE(c.read_line(&resp));  // server just closes, no crash
  }
  // After all of the above the server still serves.
  net::Client c = connect_to(fx.server);
  ASSERT_TRUE(c.http_get("/healthz", &status, &body));
  EXPECT_EQ(status, 200);
}

TEST(NetHttp, OversizedBodyGets413) {
  net::ServerOptions opt = http_options();
  opt.serve.max_line_bytes = 256;
  ServerFixture fx(opt);
  net::Client client = connect_to(fx.server);
  int status = 0;
  std::string body;
  ASSERT_TRUE(
      client.http_post("/api/v1", std::string(4096, 'x'), &status, &body));
  EXPECT_EQ(status, 413);
  EXPECT_EQ(decode_response(body).value.code, ErrorCode::Capacity);
}

// ---------------------------------------------------------------------------
// Router over two in-process workers.
// ---------------------------------------------------------------------------

std::string op_line(const std::string& id, Operation op) {
  Request r;
  r.id = id;
  r.op = std::move(op);
  return encode_request(r);
}

SolveSpec det_spec(const char* model = kDetModel) {
  return {engine::Problem::Cdpf, 0.0, false, "", model};
}

/// Two default workers behind a router started with \p opt plus their
/// addresses as its shards.
struct RouterFixture {
  explicit RouterFixture(net::RouterOptions opt = {}) {
    opt.shards = {{"127.0.0.1", w0.server.port()},
                  {"127.0.0.1", w1.server.port()}};
    router = std::make_unique<net::Router>(std::move(opt));
    std::string err;
    ok = router->start(&err);
    EXPECT_TRUE(ok) << err;
  }
  ~RouterFixture() {
    if (ok) {
      router->request_drain();
      router->wait();
    }
  }
  net::Client connect() const { return connect_to(router->port()); }

  ServerFixture w0, w1;
  std::unique_ptr<net::Router> router;
  bool ok = false;
};

Response ask(net::Client& client, const std::string& line) {
  std::string resp;
  EXPECT_TRUE(client.request(line, &resp));
  const Decoded<Response> dec = decode_response(resp);
  EXPECT_EQ(dec.code, ErrorCode::Ok) << resp;
  return dec.value;
}

TEST(NetRouter, SessionIdsAreTheRoutersOwn) {
  RouterFixture fx;
  net::Client c = fx.connect();
  for (std::uint64_t want = 1; want <= 3; ++want) {
    const Response r = ask(
        c, op_line("o" + std::to_string(want), SessionOpenRequest{det_spec()}));
    ASSERT_EQ(r.code, ErrorCode::Ok) << r.error;
    const auto* p = std::get_if<SessionOpenedPayload>(&r.payload);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->session, want);
  }
  EXPECT_EQ(ask(c, op_line("e", SessionEditRequest{
                                         2, EditOp::SetCost, "a", 3.0, ""}))
                .code,
            ErrorCode::Ok);
  EXPECT_EQ(ask(c, op_line("r", SessionResolveRequest{2})).code,
            ErrorCode::Ok);
  EXPECT_EQ(ask(c, op_line("c", SessionCloseRequest{2})).code,
            ErrorCode::Ok);
  for (const std::uint64_t gone : {std::uint64_t{2}, std::uint64_t{9}}) {
    const Response r = ask(c, op_line("g", SessionResolveRequest{gone}));
    EXPECT_EQ(r.code, ErrorCode::NoSuchSession);
    EXPECT_EQ(r.error, "no session " + std::to_string(gone));
  }
}

TEST(NetRouter, SnapshotOpsAreDeclinedPerWorker) {
  RouterFixture fx;
  net::Client c = fx.connect();
  for (Operation op : {Operation{SnapshotSaveRequest{"x.atcd"}},
                       Operation{SnapshotLoadRequest{"x.atcd"}}}) {
    const Response r = ask(c, op_line("s", std::move(op)));
    EXPECT_EQ(r.code, ErrorCode::InvalidArgument);
    EXPECT_EQ(r.error,
              "snapshot ops are per-worker; run them against a shard "
              "directly");
  }
}

TEST(NetRouter, MalformedAndOverCapLinesAreTypedAndConnectionSurvives) {
  net::RouterOptions opt;
  opt.max_line_bytes = 256;
  RouterFixture fx(opt);
  net::Client c = fx.connect();
  EXPECT_EQ(ask(c, "this is not json").code,
            ErrorCode::MalformedRequest);
  const Response big = ask(c, std::string(4096, 'x'));
  EXPECT_EQ(big.code, ErrorCode::Capacity);
  EXPECT_EQ(big.error, "input line exceeds 256 bytes");
  const Response ok = ask(c, solve_line("after"));
  EXPECT_EQ(ok.code, ErrorCode::Ok);
  EXPECT_EQ(ok.id, "after");
}

TEST(NetRouter, ConnectionCapRejectsWithTypedError) {
  net::RouterOptions opt;
  opt.max_conns = 1;
  RouterFixture fx(opt);
  net::Client a = fx.connect();
  EXPECT_EQ(ask(a, solve_line("a")).code, ErrorCode::Ok);
  net::Client b = fx.connect();
  std::string resp;
  ASSERT_TRUE(b.read_line(&resp));
  const Decoded<Response> dec = decode_response(resp);
  EXPECT_EQ(dec.value.code, ErrorCode::Capacity);
  EXPECT_EQ(dec.value.error, "connection limit reached (max 1)");
  EXPECT_FALSE(b.read_line(&resp));
  EXPECT_EQ(ask(a, solve_line("a2")).code, ErrorCode::Ok);
}

TEST(NetRouter, QuitEchoesIdAndHandledCount) {
  RouterFixture fx;
  {
    net::Client c = fx.connect();
    EXPECT_EQ(ask(c, solve_line("1")).code, ErrorCode::Ok);
    EXPECT_EQ(ask(c, solve_line("2", 3.0, true)).code, ErrorCode::Ok);
    const Response r = ask(c, shutdown_line("q"));
    EXPECT_EQ(r.id, "q");
    const auto* p = std::get_if<ShutdownPayload>(&r.payload);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->handled, 2u);
    std::string resp;
    EXPECT_FALSE(c.read_line(&resp));
  }
  fx.router->request_drain();
  fx.router->wait();
  EXPECT_EQ(fx.router->handled(), 2u);
}

TEST(NetRouter, DrainFinishesInFlightRequestThenShutdown) {
  RouterFixture fx;
  net::Client c = fx.connect();
  ASSERT_TRUE(c.send_line(sweep_line("heavy")));
  // The sweep is in flight once a worker has started dispatching it.
  const auto worker_requests = [&] {
    return fx.w0.dispatcher.counters().requests +
           fx.w1.dispatcher.counters().requests;
  };
  for (int i = 0; i < 2000 && worker_requests() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  fx.router->request_drain();

  std::string resp;
  ASSERT_TRUE(c.read_line(&resp));
  EXPECT_EQ(id_of(resp), "heavy");
  EXPECT_EQ(decode_response(resp).value.code, ErrorCode::Ok);
  ASSERT_TRUE(c.read_line(&resp));
  EXPECT_TRUE(is_shutdown(resp));
  EXPECT_FALSE(c.read_line(&resp));
  fx.router->wait();
}

TEST(NetRouter, StatsAndMetricsSumOverShards) {
  RouterFixture fx;
  net::Client c = fx.connect();
  const char* other =
      "bas x cost=2 damage=3\n"
      "bas y cost=5 damage=1\n"
      "and t = x, y damage=7\n";
  EXPECT_EQ(ask(c, solve_line("1")).code, ErrorCode::Ok);
  EXPECT_EQ(ask(c, op_line("2", SolveRequest{det_spec(other)})).code,
            ErrorCode::Ok);

  const Response stats = ask(c, op_line("s", StatsRequest{}));
  const auto* sp = std::get_if<StatsPayload>(&stats.payload);
  ASSERT_NE(sp, nullptr);
  const StatsPayload s0 = fx.w0.dispatcher.stats();
  const StatsPayload s1 = fx.w1.dispatcher.stats();
  EXPECT_EQ(sp->api.solves, 2u);
  EXPECT_EQ(sp->api.solves, s0.api.solves + s1.api.solves);
  EXPECT_EQ(sp->cache.misses, s0.cache.misses + s1.cache.misses);

  const Response metrics = ask(c, op_line("m", MetricsRequest{}));
  const auto* mp = std::get_if<MetricsPayload>(&metrics.payload);
  ASSERT_NE(mp, nullptr);
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(mp->json, &doc, &err)) << err;
  const json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto counter = [&](const char* name) {
    const json::Value* v = counters->find(name);
    return v ? static_cast<std::uint64_t>(v->number) : 0;
  };
  const auto worker_sum = [&](const char* name) {
    return fx.w0.dispatcher.metrics().counter(name).value() +
           fx.w1.dispatcher.metrics().counter(name).value();
  };
  EXPECT_EQ(counter("atcd_api_solves_total"), 2u);
  // Two solves, then stats and metrics fanned out to both workers.
  EXPECT_EQ(counter("atcd_api_requests_total"), 6u);
  EXPECT_EQ(counter("atcd_api_requests_total"),
            worker_sum("atcd_api_requests_total"));
  EXPECT_NE(mp->text.find("# TYPE atcd_api_solves_total counter\n"
                          "atcd_api_solves_total 2\n"),
            std::string::npos);
  // The router's own instruments are part of the fleet view.
  EXPECT_GT(counter("atcd_router_requests_total"), 0u);
}

TEST(NetRouter, UnreachableShardIsATypedInternalError) {
  std::string err;
  net::Fd probe = net::listen_tcp("127.0.0.1", 0, 1, &err);
  ASSERT_TRUE(probe.valid()) << err;
  const std::uint16_t dead_port = net::local_port(probe.get());
  probe.reset();  // nothing listens there any more

  net::RouterOptions opt;
  opt.shards = {{"127.0.0.1", dead_port}};
  net::Router router(std::move(opt));
  ASSERT_TRUE(router.start(&err)) << err;
  net::Client c = connect_to(router.port());
  const Response r = ask(c, solve_line("x"));
  EXPECT_EQ(r.code, ErrorCode::Internal);
  EXPECT_EQ(r.error.rfind("shard 0 unreachable: ", 0), 0u) << r.error;
  router.request_drain();
  router.wait();
}

}  // namespace
}  // namespace atcd
