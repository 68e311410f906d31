#pragma once
/// \file process.hpp
/// The server child process, the one-connection JSON-lines client, and
/// the /proc readings the end-to-end metrics come from.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// An atcd_server child.  The destructor stops it (SIGKILL) and reaps
/// it, and the child is killed by the kernel if the benchmark dies
/// first, so no exit path leaves a process behind.
class ServerProcess {
 public:
  /// Spawns \p exe with \p args; its stderr goes to \p stderr_path (a
  /// pipe the benchmark stopped reading could block or kill the
  /// server), its stdout to /dev/null.
  ServerProcess(const std::string& exe, const std::vector<std::string>& args,
                const std::string& stderr_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Polls the server's stderr for its "listening on host:port" line.
  /// Returns 0 on timeout or when the child exited first.
  std::uint16_t wait_for_port(double timeout_s);

  /// SIGTERM, then SIGKILL after \p grace_s; reaps the child.  Returns
  /// its exit status as waitpid reports it (-1 if none was running).
  int stop(double grace_s);
  /// SIGKILL and reap.
  void kill_now();

 private:
  pid_t pid_ = -1;
  std::string stderr_path_;
};

/// A blocking, lockstep JSON-lines connection to 127.0.0.1:port with
/// TCP_NODELAY — one request in flight at a time.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return fd_ >= 0; }
  /// Sends \p line plus '\n' and reads one response line into \p out
  /// (without the newline).  False on a transport failure.
  bool request(const std::string& line, std::string* out);

 private:
  bool read_line(std::string* out);

  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// User + system CPU seconds of a process, from /proc/<pid>/stat.
double process_cpu_seconds(pid_t pid);
/// Peak resident set (VmHWM) of a process in MiB, from /proc/<pid>/status.
double process_peak_rss_mb(pid_t pid);
/// CPU time the hypervisor stole from this machine, summed over all
/// CPUs, in seconds (/proc/stat "steal").
double steal_seconds();
/// One-minute load average from /proc/loadavg (-1 when unreadable).
double load_average();
/// Online CPUs.
unsigned cpu_count();

}  // namespace perfbench
