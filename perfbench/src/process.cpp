#include "process.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

}  // namespace

ServerProcess::ServerProcess(const std::string& exe,
                             const std::vector<std::string>& args,
                             const std::string& stderr_path)
    : stderr_path_(stderr_path) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int out_fd = open("/dev/null", O_WRONLY | O_CLOEXEC);
  const int err_fd =
      open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out_fd < 0 || err_fd < 0)
    throw std::runtime_error("cannot open the server's output files");
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    // The server must not outlive the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out_fd, 1);
    dup2(err_fd, 2);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  close(out_fd);
  close(err_fd);
  if (pid < 0)
    throw std::runtime_error("cannot spawn " + exe + ": " + std::strerror(errno));
  pid_ = pid;
}

ServerProcess::~ServerProcess() { kill_now(); }

std::uint16_t ServerProcess::wait_for_port(double timeout_s) {
  static const std::string kMarker = "listening on ";
  const auto t0 = Clock::now();
  while (seconds_since(t0) < timeout_s) {
    const std::string log = read_file(stderr_path_);
    const std::size_t at = log.find(kMarker);
    if (at != std::string::npos) {
      const std::size_t colon = log.find(':', at + kMarker.size());
      const std::size_t end = log.find_first_of(" \n", colon);
      if (colon != std::string::npos && end != std::string::npos)
        return static_cast<std::uint16_t>(
            std::stoul(log.substr(colon + 1, end - colon - 1)));
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  return 0;
}

int ServerProcess::stop(double grace_s) {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  const auto t0 = Clock::now();
  int status = 0;
  while (seconds_since(t0) < grace_s) {
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  kill_now();
  return -1;
}

void ServerProcess::kill_now() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

LineClient::LineClient(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
}

LineClient::~LineClient() {
  if (fd_ >= 0) close(fd_);
}

bool LineClient::request(const std::string& line, std::string* out) {
  if (fd_ < 0) return false;
  std::string msg = line;
  msg += '\n';
  std::size_t sent = 0;
  while (sent < msg.size()) {
    const ssize_t n = send(fd_, msg.data() + sent, msg.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return read_line(out);
}

bool LineClient::read_line(std::string* out) {
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      out->assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return true;
    }
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[65536];
    // Busy-poll: a client that blocks lets its vCPU halt, and waking a
    // halted vCPU costs a hypervisor round trip whose length varies far
    // more than the request itself.
    const ssize_t n = recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

double process_cpu_seconds(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream in(stat.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::istringstream in(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

double steal_seconds() {
  std::istringstream in(read_file("/proc/stat"));
  std::string cpu;
  unsigned long long f[8] = {};
  in >> cpu;
  for (auto& v : f) in >> v;
  return static_cast<double>(f[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double load_average() {
  std::istringstream in(read_file("/proc/loadavg"));
  double one = -1.0;
  in >> one;
  return one;
}

unsigned cpu_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

}  // namespace perfbench
