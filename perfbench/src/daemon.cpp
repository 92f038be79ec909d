#include "daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common.hpp"

extern char** environ;

namespace bench {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// poll() for `events` on one fd; false on timeout.
bool wait_fd(int fd, short events, double timeout_s) {
  pollfd p{fd, events, 0};
  const int ms = static_cast<int>(std::max(0.0, timeout_s) * 1e3) + 1;
  for (;;) {
    const int r = ::poll(&p, 1, ms);
    if (r >= 0) return r > 0;
    if (errno != EINTR) sys_fail("poll");
  }
}

}  // namespace

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) sys_fail("pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
  std::vector<std::string> argv_store{exe};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  log_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(log_fd_);
    throw std::runtime_error("cannot spawn " + exe + ": " + std::strerror(rc));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (log_fd_ >= 0) ::close(log_fd_);
}

std::uint16_t Daemon::wait_ready(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  const std::string mark = "listening on ";
  for (;;) {
    const auto at = log_.find(mark);
    if (at != std::string::npos) {
      const auto eol = log_.find('\n', at);
      if (eol != std::string::npos) {
        const auto colon = log_.rfind(':', eol);
        return static_cast<std::uint16_t>(
            std::stoul(log_.substr(colon + 1, eol - colon - 1)));
      }
    }
    if (!wait_fd(log_fd_, POLLIN, deadline - now_s())) {
      throw std::runtime_error("nas_served not ready in time; log:\n" + log_);
    }
    char chunk[4096];
    const ssize_t got = ::read(log_fd_, chunk, sizeof chunk);
    if (got == 0) throw std::runtime_error("nas_served exited; log:\n" + log_);
    if (got < 0 && errno != EINTR) sys_fail("read daemon log");
    if (got > 0) log_.append(chunk, static_cast<std::size_t>(got));
  }
}

double Daemon::peak_rss_mb() const { return proc_peak_rss_mb(pid_); }

void Daemon::drain_log(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  char chunk[4096];
  while (wait_fd(log_fd_, POLLIN, deadline - now_s())) {
    const ssize_t got = ::read(log_fd_, chunk, sizeof chunk);
    if (got == 0) return;
    if (got < 0 && errno != EINTR) return;
    if (got > 0) log_.append(chunk, static_cast<std::size_t>(got));
  }
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  drain_log(10.0);  // EOF once the daemon has exited
  int status = 0;
  pid_t r = 0;
  for (int i = 0; i < 1000 && r == 0; ++i) {
    r = ::waitpid(pid_, &status, WNOHANG);
    if (r == 0) ::usleep(1000);
  }
  if (r == 0) return false;  // the destructor kills and reaps it
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Conn::Conn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) sys_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    sys_fail("connect");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::send(const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n =
        ::send(fd_, text.data() + done, text.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("send");
    }
    done += static_cast<std::size_t>(n);
  }
}

bool Conn::pump() {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      lines_ += static_cast<std::size_t>(
          std::count(chunk, chunk + n, '\n'));
      if (static_cast<std::size_t>(n) < sizeof chunk) return true;
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    sys_fail("recv");
  }
}

bool Conn::take_lines(std::size_t lines, std::string* out) {
  if (lines_ < lines) return false;
  std::size_t end = 0;
  for (std::size_t i = 0; i < lines; ++i) end = buf_.find('\n', end) + 1;
  out->assign(buf_, 0, end);
  buf_.erase(0, end);
  lines_ -= lines;
  return true;
}

std::string Conn::recv_lines(std::size_t lines, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  std::string out;
  while (!take_lines(lines, &out)) {
    if (error_pending()) {
      take_lines(1, &out);
      return out;  // an ERR reply never matches an expected answer
    }
    if (!wait_fd(fd_, POLLIN, deadline - now_s())) {
      throw std::runtime_error("timed out waiting for a reply");
    }
    if (!pump()) throw std::runtime_error("connection closed by nas_served");
  }
  return out;
}

}  // namespace bench
