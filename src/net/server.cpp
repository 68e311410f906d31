#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>

#include "api/json.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"

namespace atcd::net {

namespace {

/// The self-pipe write end the signal handlers poke.  One byte per
/// signal; the accept loop treats any readable byte as "drain now".
std::atomic<int> g_signal_pipe_wr{-1};

extern "C" void drain_signal_handler(int) {
  const int fd = g_signal_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char b = 'q';
    [[maybe_unused]] const ssize_t n = ::write(fd, &b, 1);
  }
}

}  // namespace

bool TcpLineTransport::write_line(const std::string& line) {
  // One send per response line keeps latency at one TCP_NODELAY packet
  // instead of two.
  buf_.assign(line);
  buf_.push_back('\n');
  return io_.write_all(buf_);
}

Server::Server(obs::Registry& metrics, ServerOptions options,
               ConnectionFn serve)
    : metrics_(metrics), options_(std::move(options)),
      serve_(std::move(serve)) {}

Server::Server(api::Dispatcher& dispatcher, ServerOptions options)
    : Server(dispatcher.metrics(), options,
             [&dispatcher, http = options.http,
              serve = options.serve](BufferedFd& io) -> std::size_t {
               if (http) {
                 // HTTP/1.1 responses must come back in request order;
                 // serve the connection synchronously.
                 api::JsonServeOptions sync = serve;
                 sync.threads = 0;
                 HttpTransport transport(io, dispatcher);
                 return api::serve_lines(transport, dispatcher, sync);
               }
               TcpLineTransport transport(io);
               return api::serve_lines(transport, dispatcher, serve);
             }) {}

Server::~Server() {
  request_drain();
  wait();
}

bool Server::start(std::string* error) {
  listen_fd_ = listen_tcp(options_.host, options_.port, options_.backlog,
                          error);
  if (!listen_fd_.valid()) return false;
  port_ = local_port(listen_fd_.get());

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    if (error) *error = "pipe: cannot create drain self-pipe";
    listen_fd_.reset();
    return false;
  }
  ::fcntl(pipefd[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(pipefd[1], F_SETFD, FD_CLOEXEC);
  pipe_rd_.reset(pipefd[0]);
  pipe_wr_.reset(pipefd[1]);

  accepted_ = &metrics_.counter("atcd_net_accepted_total");
  rejected_ = &metrics_.counter("atcd_net_rejected_total");
  bytes_read_ = &metrics_.counter("atcd_net_bytes_read_total");
  bytes_written_ = &metrics_.counter("atcd_net_bytes_written_total");
  connections_ = &metrics_.gauge("atcd_net_connections");
  conn_requests_ = &metrics_.histogram("atcd_net_connection_requests");

  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::request_drain() {
  if (!pipe_wr_.valid()) return;
  const char b = 'q';
  [[maybe_unused]] const ssize_t n = ::write(pipe_wr_.get(), &b, 1);
}

void Server::install_signal_handlers() {
  g_signal_pipe_wr.store(pipe_wr_.get(), std::memory_order_relaxed);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = drain_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

std::size_t Server::open_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conn_fds_.size();
}

void Server::reject(Fd fd) {
  rejected_->add();
  BufferedFd io(std::move(fd),
                ByteCounters{bytes_read_, bytes_written_});
  const std::string body =
      api::encode_response(
          api::error_response(
              "", api::ErrorCode::Capacity,
              "connection limit reached (max " +
                  std::to_string(options_.max_conns) + ")"),
          false) +
      "\n";
  if (options_.http) {
    io.write_all("HTTP/1.1 503 Service Unavailable\r\nContent-Type: "
                 "application/json\r\nContent-Length: " +
                 std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n");
  }
  io.write_all(body);
}

void Server::accept_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_.get(), POLLIN, 0},
                     {pipe_rd_.get(), POLLIN, 0}};
    // Finite timeout so finished connection threads get reaped even on
    // an idle listener.
    const int rc = ::poll(fds, 2, 250);
    reap_finished();
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) break;  // drain requested
    if (!(fds[0].revents & POLLIN)) continue;

    Fd conn(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!conn.valid()) continue;
    set_nodelay(conn.get());

    std::uint64_t id;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conn_fds_.size() >= options_.max_conns) {
        // Reject outside the lock-free fast path but without holding
        // conns_mu_ across a send.
        id = 0;
      } else {
        id = ++next_conn_id_;
        conn_fds_.emplace(id, conn.get());
      }
    }
    if (id == 0) {
      reject(std::move(conn));
      continue;
    }
    accepted_->add();
    connections_->set(static_cast<double>(open_connections()));
    std::thread th([this, id, fd = std::move(conn)]() mutable {
      connection_main(id, std::move(fd));
    });
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn_threads_.emplace(id, std::move(th));
    }
  }

  // Drain: stop accepting, EOF every open connection's read side (the
  // write side stays up for the final shutdown response), then join.
  draining_.store(true);
  listen_fd_.reset();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  while (true) {
    std::map<std::uint64_t, std::thread> remaining;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      remaining.swap(conn_threads_);
      finished_.clear();
    }
    if (remaining.empty()) break;
    for (auto& [id, th] : remaining)
      if (th.joinable()) th.join();
  }
}

void Server::reap_finished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = finished_.begin(); it != finished_.end();) {
      auto t = conn_threads_.find(*it);
      if (t != conn_threads_.end()) {
        done.push_back(std::move(t->second));
        conn_threads_.erase(t);
        it = finished_.erase(it);
      } else {
        // The connection outpaced its registration in the accept loop;
        // leave the id for the next reap.
        ++it;
      }
    }
  }
  for (std::thread& th : done)
    if (th.joinable()) th.join();
}

void Server::connection_main(std::uint64_t id, Fd fd) {
  std::size_t n = 0;
  {
    BufferedFd io(std::move(fd), ByteCounters{bytes_read_, bytes_written_});
    n = serve_(io);

    // Deregister while io still owns the (open) fd: the drain path
    // shutdown()s every registered fd, and a closed fd number can be
    // recycled by a new accept — it must leave the table before it can
    // be closed.
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.erase(id);
    connections_->set(static_cast<double>(conn_fds_.size()));
  }
  handled_.fetch_add(n);
  conn_requests_->record(n);
  std::lock_guard<std::mutex> lock(conns_mu_);
  finished_.push_back(id);
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

}  // namespace atcd::net
