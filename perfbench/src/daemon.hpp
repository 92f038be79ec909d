// A nas_served child process and plain-socket client connections to it.
// The client speaks only the wire protocol; it shares no code with src/net.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

/// Spawns nas_served and owns it: the destructor kills and reaps a daemon
/// that was not stopped, so no path leaves a process behind.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the daemon logs "listening on <host>:<port>"; returns the
  /// port.  Throws if it exits first or `timeout_s` passes.
  std::uint16_t wait_ready(double timeout_s);
  /// VmHWM of the daemon, in MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// SIGTERM, drain its log, reap it; returns true iff it exited 0.
  bool stop();

 private:
  void drain_log(double timeout_s);
  pid_t pid_ = -1;
  int log_fd_ = -1;  ///< read end of the daemon's stdout+stderr
  std::string log_;
};

/// One blocking TCP connection with line-oriented replies.
class Conn {
 public:
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send(const std::string& text);
  /// Reads until `lines` more '\n'-terminated lines are buffered and returns
  /// them (with terminators).  Throws after `timeout_s` without them.
  std::string recv_lines(std::size_t lines, double timeout_s);
  /// Non-blocking read of whatever has arrived; returns false on EOF.
  bool pump();
  /// Takes `lines` complete lines if buffered.
  bool take_lines(std::size_t lines, std::string* out);
  /// True when the next buffered line is an "ERR ..." reply.
  [[nodiscard]] bool error_pending() const {
    return lines_ > 0 && buf_.rfind("ERR", 0) == 0;
  }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t lines_ = 0;  ///< complete lines in buf_
};

}  // namespace bench
