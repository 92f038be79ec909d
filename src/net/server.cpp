#include "net/server.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/query_workload.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace nas::net {

namespace {

constexpr std::size_t kReadChunk = 4096;
/// Consumed-prefix size past which a buffer is compacted (amortized O(1)).
constexpr std::size_t kCompactBytes = 1 << 16;

}  // namespace

struct Server::Connection {
  UniqueFd fd;
  std::uint64_t id = 0;

  std::string in;          ///< appended by reads, consumed at `in_pos`
  std::size_t in_pos = 0;
  std::string out;         ///< appended by replies, flushed at `out_pos`
  std::size_t out_pos = 0;

  // Between a BATCH header and its last body line.  The first body error is
  // latched while the remaining (length-known) body lines are consumed, so
  // one bad pair costs one ERR, not the connection.
  bool collecting_batch = false;
  std::uint64_t batch_remaining = 0;
  std::string batch_error;
  std::vector<apps::Query> batch;

  bool awaiting_result = false;  ///< a job is at the bridge; parsing paused
  bool stalled = false;          ///< bridge queue full; `parked` waits
  BatchJob parked;

  bool read_closed = false;  ///< peer half-closed; drain buffer, then close
  bool want_close = false;   ///< close once `out` is flushed
  double last_active_ms = 0;

  // Interest currently registered with the event loop (diffed on update).
  bool reg_read = true;
  bool reg_write = false;

  [[nodiscard]] bool out_pending() const { return out_pos < out.size(); }
  [[nodiscard]] bool busy() const { return awaiting_result || stalled; }
};

/// All loop-thread state.  Lives on run()'s stack so a Server that never
/// runs (or has finished) holds no loop resources; Server itself keeps only
/// what request_stop() and port() need.
class Server::Impl {
 public:
  explicit Impl(Server& server)
      : s_(server),
        bridge_(server.cluster_, server.options_.serve_threads,
                server.options_.queue_depth,
                server.wakeup_.write_end.get()) {}

  void run_loop() {
    const int listen_fd = s_.listen_fd_.get();
    const int wakeup_fd = s_.wakeup_.read_end.get();
    loop_.add(listen_fd, /*want_read=*/true, /*want_write=*/false);
    loop_.add(wakeup_fd, /*want_read=*/true, /*want_write=*/false);
    listening_ = true;

    for (;;) {
      apply_stop();
      if (force_exit_) break;
      if (draining_) {
        if (conns_.empty()) break;
        if (timer_.millis() >= drain_deadline_ms_) break;
      }

      const auto& ready = loop_.wait(wait_timeout_ms());
      const double now = timer_.millis();

      // Accepts and completions are deferred past the per-connection events:
      // a close during this pass can recycle a descriptor number, and a
      // freshly accepted connection must never be hit by a stale ready
      // event carrying the same number.
      bool wakeup_ready = false;
      bool accept_ready = false;
      for (const auto& ev : ready) {
        if (ev.fd == wakeup_fd) {
          wakeup_ready = true;
        } else if (ev.fd == listen_fd) {
          accept_ready = true;
        } else {
          handle_conn_event(ev, now);
        }
      }
      if (wakeup_ready) {
        drain_wakeup_pipe(wakeup_fd);
        handle_completions(now);
      }
      if (accept_ready && listening_) accept_pending(now);
      if (s_.options_.idle_timeout_ms > 0) sweep_idle(now);
    }

    if (listening_) {
      loop_.remove(listen_fd);
      listening_ = false;
    }
    // Destructors: bridge_ joins its worker (finishing queued jobs whose
    // connections are gone), then conns_ closes every socket.
  }

 private:
  // --- shutdown -------------------------------------------------------------

  void apply_stop() {
    const unsigned stops =
        s_.stop_requests_.load(std::memory_order_acquire);
    if (stops >= 2) force_exit_ = true;
    if (stops == 0 || draining_) return;
    draining_ = true;
    drain_deadline_ms_ = timer_.millis() + static_cast<double>(
                                               s_.options_.drain_timeout_ms);
    if (listening_) {
      loop_.remove(s_.listen_fd_.get());
      listening_ = false;
    }
    // Every connection stops parsing; in-flight jobs still complete and
    // flush.  Collect descriptors first — finishing a connection can erase.
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) {
      conn.want_close = true;
      fds.push_back(fd);
    }
    for (const int fd : fds) finish_conn(fd);
  }

  // --- accept ---------------------------------------------------------------

  void accept_pending(double now) {
    for (;;) {
      const AcceptResult r = accept_connection(s_.listen_fd_.get());
      if (r.status == IoStatus::kWouldBlock) break;
      if (r.status == IoStatus::kError) {
        // Transient exhaustion (EMFILE/ENFILE/ENOMEM): stop accepting this
        // round; the listen socket stays registered and we retry later.
        break;
      }
      UniqueFd fd(r.fd);
      if (conns_.size() >= s_.options_.max_conns) {
        ++s_.totals_.connections_rejected;
        // Best-effort courtesy on the still-blocking descriptor; the
        // close that follows is the real answer.
        static const char kBusy[] = "ERR server busy\n";
        int err = 0;
        const bool sent = write_all(fd.get(), kBusy, sizeof kBusy - 1, &err);
        static_cast<void>(sent);
        continue;
      }
      set_nonblocking(fd.get());
      set_cloexec(fd.get());
      set_nodelay(fd.get());
      ++s_.totals_.connections_accepted;
      Connection conn;
      conn.fd = std::move(fd);
      conn.id = next_id_++;
      conn.last_active_ms = now;
      const int raw = conn.fd.get();
      loop_.add(raw, /*want_read=*/true, /*want_write=*/false);
      id_to_fd_[conn.id] = raw;
      conns_.emplace(raw, std::move(conn));
    }
  }

  // --- per-connection events ------------------------------------------------

  void handle_conn_event(const ReadyEvent& ev, double now) {
    const auto it = conns_.find(ev.fd);
    if (it == conns_.end()) return;
    Connection& conn = it->second;
    if (ev.broken && conn.busy()) {
      // The peer is gone while its job is queued or running: the answer is
      // undeliverable, and with read interest off the hangup event would
      // otherwise re-fire every wait.  The in-flight result is dropped at
      // completion time (the id no longer resolves).
      close_conn(ev.fd);
      return;
    }
    if ((ev.readable || ev.broken) && !conn.busy() && !conn.want_close) {
      if (!read_into(conn, now)) {
        close_conn(ev.fd);
        return;
      }
      process_input(conn, now);
    }
    finish_conn(ev.fd);
  }

  /// Flush + close-if-done + interest refresh; safe on a just-erased fd.
  void finish_conn(int fd) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Connection& conn = it->second;
    if (!flush_out(conn)) {
      close_conn(fd);
      return;
    }
    if (conn.want_close && !conn.out_pending() && !conn.busy()) {
      close_conn(fd);
      return;
    }
    update_interest(conn);
  }

  /// Appends everything the socket has.  False on a hard error.
  [[nodiscard]] bool read_into(Connection& conn, double now) {
    char chunk[kReadChunk];
    for (;;) {
      const IoResult r = read_some(conn.fd.get(), chunk, sizeof chunk);
      if (r.status == IoStatus::kOk) {
        conn.in.append(chunk, r.bytes);
        conn.last_active_ms = now;
        continue;
      }
      if (r.status == IoStatus::kWouldBlock) return true;
      if (r.status == IoStatus::kEof) {
        conn.read_closed = true;
        return true;
      }
      return false;  // kError: reset/timeout — nothing left to salvage
    }
  }

  void process_input(Connection& conn, double now) {
    std::string line;
    while (!conn.busy() && !conn.want_close) {
      const LineStatus st = next_line(conn.in, &conn.in_pos,
                                      s_.options_.max_line_bytes, &line);
      if (st == LineStatus::kNeedMore) {
        if (conn.read_closed) {
          if (conn.collecting_batch) {
            ++s_.totals_.protocol_errors;
            send_line(conn,
                      "ERR truncated BATCH: " +
                          std::to_string(conn.batch_remaining) +
                          " body line(s) missing",
                      now);
            conn.collecting_batch = false;
          }
          conn.want_close = true;  // orderly EOF (any partial line is junk)
        }
        break;
      }
      if (st == LineStatus::kOverlong) {
        ++s_.totals_.protocol_errors;
        send_line(conn,
                  "ERR line exceeds " +
                      std::to_string(s_.options_.max_line_bytes) + " bytes",
                  now);
        conn.want_close = true;
        break;
      }
      handle_line(conn, line, now);
    }
    // Amortized compaction of the consumed prefix.
    if (conn.in_pos == conn.in.size()) {
      conn.in.clear();
      conn.in_pos = 0;
    } else if (conn.in_pos > kCompactBytes) {
      conn.in.erase(0, conn.in_pos);
      conn.in_pos = 0;
    }
  }

  void handle_line(Connection& conn, const std::string& line, double now) {
    if (conn.collecting_batch) {
      const ParseOutcome body = parse_batch_line(line, universe());
      if (body.ok) {
        if (conn.batch_error.empty()) conn.batch.push_back(body.request.query);
      } else if (conn.batch_error.empty()) {
        conn.batch_error = body.error;
      }
      if (--conn.batch_remaining > 0) return;
      conn.collecting_batch = false;
      if (!conn.batch_error.empty()) {
        ++s_.totals_.protocol_errors;
        send_line(conn, "ERR " + conn.batch_error, now);
        conn.batch.clear();
        conn.batch_error.clear();
        return;
      }
      s_.totals_.requests += conn.batch.size();
      submit(conn, std::move(conn.batch));
      conn.batch = {};
      return;
    }

    if (is_blank_line(line)) return;
    const ParseOutcome parsed =
        parse_request_line(line, universe(), s_.options_.max_batch);
    if (!parsed.ok) {
      ++s_.totals_.protocol_errors;
      send_line(conn, "ERR " + parsed.error, now);
      if (parsed.fatal) conn.want_close = true;
      return;
    }
    switch (parsed.request.kind) {
      case Request::Kind::kQuery:
        ++s_.totals_.requests;
        submit(conn, {parsed.request.query});
        break;
      case Request::Kind::kBatch:
        ++s_.totals_.batches;
        if (parsed.request.batch_size == 0) break;  // vacuous: no reply
        conn.collecting_batch = true;
        conn.batch_remaining = parsed.request.batch_size;
        conn.batch.clear();
        conn.batch_error.clear();
        break;
      case Request::Kind::kStats: {
        // Snapshots route through the bridge: the worker owns every cluster
        // counter, so reading them here would race an in-flight serve().
        ++s_.totals_.stats_requests;
        BatchJob job;
        job.kind = BatchJob::Kind::kStats;
        submit_job(conn, std::move(job));
        break;
      }
      case Request::Kind::kMetrics: {
        ++s_.totals_.metrics_requests;
        BatchJob job;
        job.kind = BatchJob::Kind::kMetrics;
        submit_job(conn, std::move(job));
        break;
      }
      case Request::Kind::kQuit:
        send_line(conn, "BYE", now);
        conn.want_close = true;
        break;
    }
  }

  // --- the bridge -----------------------------------------------------------

  void submit(Connection& conn, std::vector<apps::Query> queries) {
    BatchJob job;
    job.queries = std::move(queries);
    submit_job(conn, std::move(job));
  }

  void submit_job(Connection& conn, BatchJob job) {
    job.connection_id = conn.id;
    if (bridge_.try_submit(std::move(job))) {
      conn.awaiting_result = true;
      return;
    }
    // Queue full: park the job (try_submit left it intact) and join the
    // stalled FIFO — admission stays in arrival order under overload.
    conn.stalled = true;
    conn.parked = std::move(job);
    stalled_.push_back(conn.id);
  }

  void drain_wakeup_pipe(int wakeup_fd) {
    char sink[64];
    for (;;) {
      const IoResult r = read_some(wakeup_fd, sink, sizeof sink);
      if (r.status != IoStatus::kOk) break;  // kWouldBlock: drained
    }
  }

  void handle_completions(double now) {
    for (auto& result : bridge_.drain_completions()) {
      if (result.kind == BatchJob::Kind::kBatch) {
        s_.totals_.cluster += result.stats;
      }
      const auto idit = id_to_fd_.find(result.connection_id);
      if (idit == id_to_fd_.end()) continue;  // connection died in flight
      const int fd = idit->second;
      Connection& conn = conns_.at(fd);
      conn.awaiting_result = false;
      if (!result.error.empty()) {
        // serve() threw — should be unreachable for validated requests, but
        // the reply count is now unknowable, so the framing is forfeit.
        send_line(conn, "ERR internal: " + result.error, now);
        conn.want_close = true;
      } else if (result.kind == BatchJob::Kind::kStats) {
        util::JsonObject fields = std::move(result.snapshot);
        append_server_fields(s_.totals_, conns_.size(), &fields);
        send_line(conn, util::render_json_object(fields), now);
      } else if (result.kind == BatchJob::Kind::kMetrics) {
        send_line(conn, util::render_json_object(result.snapshot), now);
      } else {
        std::ostringstream os;
        apps::write_answers(result.queries, result.answers, os);
        append_out(conn, os.str(), now);
      }
      if (!conn.want_close) process_input(conn, now);  // buffered pipeline
      finish_conn(fd);
    }
    unstall();
  }

  void unstall() {
    while (!stalled_.empty()) {
      const std::uint64_t id = stalled_.front();
      const auto idit = id_to_fd_.find(id);
      if (idit == id_to_fd_.end()) {
        stalled_.pop_front();  // closed while parked; job dropped with it
        continue;
      }
      Connection& conn = conns_.at(idit->second);
      if (!bridge_.try_submit(std::move(conn.parked))) break;
      conn.stalled = false;
      conn.awaiting_result = true;
      conn.parked = BatchJob{};
      stalled_.pop_front();
      update_interest(conn);
    }
  }

  // --- output ---------------------------------------------------------------

  void append_out(Connection& conn, std::string text, double now) {
    if (conn.out.empty()) {
      conn.out = std::move(text);
    } else {
      conn.out += text;
    }
    conn.last_active_ms = now;
  }

  void send_line(Connection& conn, const std::string& line, double now) {
    append_out(conn, line + "\n", now);
  }

  /// Writes as much of `out` as the socket takes.  False on a hard error.
  [[nodiscard]] bool flush_out(Connection& conn) {
    while (conn.out_pending()) {
      const IoResult r =
          write_some(conn.fd.get(), conn.out.data() + conn.out_pos,
                     conn.out.size() - conn.out_pos);
      if (r.status == IoStatus::kOk) {
        conn.out_pos += r.bytes;
        continue;
      }
      if (r.status == IoStatus::kWouldBlock) break;
      return false;  // kError (EPIPE after MSG_NOSIGNAL, reset, ...)
    }
    if (!conn.out_pending()) {
      conn.out.clear();
      conn.out_pos = 0;
    } else if (conn.out_pos > kCompactBytes) {
      conn.out.erase(0, conn.out_pos);
      conn.out_pos = 0;
    }
    return true;
  }

  // --- bookkeeping ----------------------------------------------------------

  void update_interest(Connection& conn) {
    const bool want_read = !conn.read_closed && !conn.want_close &&
                           !conn.busy();
    const bool want_write = conn.out_pending();
    if (want_read == conn.reg_read && want_write == conn.reg_write) return;
    loop_.modify(conn.fd.get(), want_read, want_write);
    conn.reg_read = want_read;
    conn.reg_write = want_write;
  }

  void close_conn(int fd) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    loop_.remove(fd);
    id_to_fd_.erase(it->second.id);
    conns_.erase(it);  // UniqueFd closes the socket
  }

  void sweep_idle(double now) {
    const auto timeout = static_cast<double>(s_.options_.idle_timeout_ms);
    std::vector<int> victims;
    for (const auto& [fd, conn] : conns_) {
      if (conn.busy() || conn.want_close) continue;
      if (now - conn.last_active_ms >= timeout) victims.push_back(fd);
    }
    for (const int fd : victims) {
      ++s_.totals_.idle_closed;
      close_conn(fd);
    }
  }

  [[nodiscard]] int wait_timeout_ms() const {
    const double now = timer_.millis();
    double best = std::numeric_limits<double>::infinity();
    if (draining_) best = std::min(best, drain_deadline_ms_ - now);
    if (s_.options_.idle_timeout_ms > 0) {
      const auto timeout = static_cast<double>(s_.options_.idle_timeout_ms);
      for (const auto& [fd, conn] : conns_) {
        if (conn.busy() || conn.want_close) continue;
        best = std::min(best, conn.last_active_ms + timeout - now);
      }
    }
    if (!std::isfinite(best)) return -1;
    if (best <= 0) return 0;
    // +1: round up so a wait never expires a hair before its deadline.
    return static_cast<int>(best) + 1;
  }

  [[nodiscard]] graph::Vertex universe() const {
    return s_.cluster_.universe();
  }

  Server& s_;
  EventLoop loop_;
  BatchBridge bridge_;
  util::Timer timer_;

  std::map<int, Connection> conns_;             ///< by descriptor
  std::map<std::uint64_t, int> id_to_fd_;       ///< live connection ids
  std::deque<std::uint64_t> stalled_;           ///< overload FIFO (by id)
  std::uint64_t next_id_ = 1;

  bool listening_ = false;
  bool draining_ = false;
  bool force_exit_ = false;
  double drain_deadline_ms_ = 0;
};

Server::Server(serve::ShardedCluster& cluster, const ServerOptions& options)
    : cluster_(cluster), options_(options) {
  listen_fd_ = open_listen_socket(options_.listen, options_.port,
                                  /*backlog=*/128, &bound_port_);
  wakeup_ = open_wakeup_pipe();
}

Server::~Server() = default;

void Server::run() {
  Impl impl(*this);
  impl.run_loop();
}

void Server::request_stop() {
  stop_requests_.fetch_add(1, std::memory_order_release);
  signal_wakeup(wakeup_.write_end.get());
}

void append_server_fields(const ServerTotals& totals,
                          std::uint64_t connections_open,
                          util::JsonObject* fields) {
  const auto number = [](std::uint64_t v) {
    return util::JsonValue::number(v);
  };
  fields->emplace_back("connections_accepted",
                       number(totals.connections_accepted));
  fields->emplace_back("connections_rejected",
                       number(totals.connections_rejected));
  fields->emplace_back("connections_open", number(connections_open));
  fields->emplace_back("served_requests", number(totals.requests));
  fields->emplace_back("served_batches", number(totals.batches));
  fields->emplace_back("stats_requests", number(totals.stats_requests));
  fields->emplace_back("metrics_requests", number(totals.metrics_requests));
  fields->emplace_back("protocol_errors", number(totals.protocol_errors));
  fields->emplace_back("idle_closed", number(totals.idle_closed));
}

}  // namespace nas::net
