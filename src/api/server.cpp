#include "api/server.hpp"

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "api/json.hpp"
#include "obs/metrics.hpp"

namespace atcd::api {

namespace detail {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// IoStreamTransport.
// ---------------------------------------------------------------------------

LineTransport::ReadStatus IoStreamTransport::read_line(std::string& line,
                                                       std::size_t max_bytes) {
  line.clear();
  // istream::getline stores at most size-1 chars; sizing the buffer at
  // max_bytes+2 accepts lines of exactly max_bytes and flags anything
  // longer without ever holding more than the cap.
  buf_.resize(max_bytes + 2);
  in_.getline(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  if (in_.bad()) return ReadStatus::Eof;
  if (in_.fail()) {
    if (in_.gcount() == 0) return ReadStatus::Eof;  // true EOF / dead stream
    // Overlong line: the buffer filled before a newline.  Drop the
    // remainder without buffering it (ignore() discards as it reads).
    in_.clear(in_.rdstate() & ~std::ios::failbit);
    in_.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    return ReadStatus::TooLong;
  }
  const std::size_t len = std::strlen(buf_.data());
  if (len > max_bytes) return ReadStatus::TooLong;
  line.assign(buf_.data(), len);
  return ReadStatus::Line;
}

bool IoStreamTransport::write_line(const std::string& line) {
  out_ << line << '\n';
  out_.flush();
  return static_cast<bool>(out_);
}

// ---------------------------------------------------------------------------
// The serving core.
// ---------------------------------------------------------------------------

std::size_t serve_lines(LineTransport& t, Dispatcher& dispatcher,
                        const JsonServeOptions& options) {
  std::mutex out_mu;
  std::atomic<std::size_t> handled{0};
  std::atomic<bool> sink_failed{false};
  obs::Counter& write_errors =
      dispatcher.metrics().counter("atcd_net_write_errors_total");

  const std::size_t workers = options.threads > 1 ? options.threads : 0;
  const std::size_t depth =
      options.max_queue ? options.max_queue
                        : 2 * (workers ? workers : std::size_t{1});

  std::deque<Request> queue;
  std::mutex queue_mu;
  std::condition_variable queue_cv;  // workers wait for work …
  std::condition_variable space_cv;  // … the reader waits for space
  bool closed = false;

  const auto emit = [&](const Response& resp) {
    std::lock_guard<std::mutex> lock(out_mu);
    if (sink_failed.load(std::memory_order_relaxed)) return;
    if (!t.write_line(encode_response(resp, options.timing))) {
      // A dead sink (closed socket, broken pipe) ends the connection:
      // stop the loop instead of dispatching and writing into the void.
      sink_failed.store(true, std::memory_order_relaxed);
      write_errors.add();
      queue_cv.notify_all();
      space_cv.notify_all();
    }
  };

  const auto process = [&](const Request& req) {
    const Response resp = dispatcher.dispatch(req);
    handled.fetch_add(handled_increment(req, resp));
    emit(resp);
  };

  // Pipelining: the reader enqueues, workers dispatch and complete out
  // of order.  Responses interleave by completion; clients match them
  // by id.  The queue is bounded: at `depth` pending requests the
  // reader blocks until a worker frees a slot, so a fast client cannot
  // balloon memory (on a socket the stall becomes TCP backpressure).
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    pool.emplace_back([&] {
      while (true) {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;  // closed and drained
        Request req = std::move(queue.front());
        queue.pop_front();
        lock.unlock();
        space_cv.notify_one();
        // Once the sink is gone there is nobody to answer: drain the
        // queue without dispatching.
        if (!sink_failed.load(std::memory_order_relaxed)) process(req);
      }
    });

  std::string quit_id;
  std::string raw;
  while (!sink_failed.load(std::memory_order_relaxed)) {
    const LineTransport::ReadStatus status =
        t.read_line(raw, options.max_line_bytes);
    if (status == LineTransport::ReadStatus::Eof) break;
    if (status == LineTransport::ReadStatus::TooLong) {
      // The line's bytes are already gone (discarded while streaming),
      // so no id is recoverable; the typed capacity error keeps the
      // connection alive and the refusal observable.
      emit(error_response(
          "", ErrorCode::Capacity,
          "input line exceeds " + std::to_string(options.max_line_bytes) +
              " bytes"));
      continue;
    }
    const std::string line = detail::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    Decoded<Request> dec = decode_request(line);
    if (dec.code != ErrorCode::Ok) {
      // Malformed input never crashes and never goes silent: a typed
      // error response, carrying the envelope id when one was readable.
      emit(error_response(dec.value.id, dec.code, dec.error));
      continue;
    }
    if (std::holds_alternative<ShutdownRequest>(dec.value.op)) {
      quit_id = dec.value.id;
      break;
    }
    if (workers) {
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        space_cv.wait(lock, [&] {
          return queue.size() < depth ||
                 sink_failed.load(std::memory_order_relaxed);
        });
        if (sink_failed.load(std::memory_order_relaxed)) break;
        queue.push_back(std::move(dec.value));
      }
      queue_cv.notify_one();
    } else {
      process(dec.value);
    }
  }

  if (workers) {
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      closed = true;
    }
    queue_cv.notify_all();
    for (auto& th : pool) th.join();
  }

  // Structured shutdown — on quit *and* on EOF — after every in-flight
  // request has drained, so the last line a client reads is always the
  // shutdown response.  A failed sink skips it: the connection is gone.
  if (!sink_failed.load(std::memory_order_relaxed)) {
    Request quit;
    quit.id = quit_id;
    quit.op = ShutdownRequest{};
    Response resp = dispatcher.dispatch(quit);
    if (auto* p = std::get_if<ShutdownPayload>(&resp.payload))
      p->handled = handled.load();
    emit(resp);
  }
  return handled.load();
}

std::size_t serve_json(std::istream& in, std::ostream& out,
                       Dispatcher& dispatcher,
                       const JsonServeOptions& options) {
  IoStreamTransport transport(in, out);
  return serve_lines(transport, dispatcher, options);
}

}  // namespace atcd::api
