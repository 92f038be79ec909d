// The nas_served event loop: a single-threaded readiness server speaking
// the `src/net/protocol.hpp` line protocol over the sharded cluster.
//
// Threading model — exactly two threads touch a running Server:
//
//   * the loop thread (run()) owns every socket, buffer, and connection
//     state; it never computes a distance.
//   * the BatchBridge worker owns the cluster; it never touches a socket.
//
// The only shared state is the bridge's two locked FIFOs plus one atomic
// stop flag, so the TSan job can hold the whole design in its head.
// STATS/METRICS snapshots obey the same split: the loop thread never reads
// a cluster counter directly (that would race an in-flight serve()) — it
// submits a snapshot job, the worker captures the fields between serves,
// and the loop appends its own connection counters before replying.
//
// Per-connection sequencing: one command is in flight at a time.  While a
// connection waits on the bridge its read interest is dropped (kernel-level
// backpressure: a client blasting batches fills its socket buffer instead
// of our heap) and parsing is paused, so responses are trivially in request
// order.  When the bridge's bounded queue is full the connection parks its
// job in a FIFO of stalled connections and retries after the next
// completion — admission order is preserved even under overload.
//
// Shutdown: `request_stop` is async-signal-safe (atomic increment + one
// self-pipe write) so SIGINT/SIGTERM handlers can call it directly.  The
// first stop closes the listen socket, lets in-flight batches finish and
// flush (bounded by `drain_timeout_ms`), and closes idle connections; a
// second stop abandons the drain and exits the loop immediately.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "net/batch_bridge.hpp"
#include "net/posix_io.hpp"
#include "serve/cluster.hpp"
#include "util/json.hpp"

namespace nas::net {

struct ServerOptions {
  std::string listen = "127.0.0.1";  ///< IPv4 dotted quad to bind
  std::uint16_t port = 0;            ///< 0 = kernel-assigned ephemeral port
  std::size_t max_conns = 256;       ///< beyond this: "ERR server busy"
  std::uint64_t idle_timeout_ms = 60000;  ///< 0 = never idle-close
  std::size_t max_line_bytes = 4096;      ///< per-line cap; overlong = fatal
  std::uint64_t max_batch = 1ull << 16;   ///< BATCH n ceiling
  std::size_t queue_depth = 64;           ///< bridge jobs buffered at most
  unsigned serve_threads = 1;  ///< cluster.serve threads per batch (0 = all)
  std::uint64_t drain_timeout_ms = 5000;  ///< graceful-shutdown bound
};

/// Lifetime counters, readable after run() returns (or from the loop
/// thread).  `cluster` accumulates every answered batch's ClusterStats.
struct ServerTotals {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< turned away at max_conns
  std::uint64_t requests = 0;              ///< individual queries answered
  std::uint64_t batches = 0;               ///< BATCH commands accepted
  std::uint64_t stats_requests = 0;
  std::uint64_t metrics_requests = 0;
  std::uint64_t protocol_errors = 0;       ///< ERR lines sent
  std::uint64_t idle_closed = 0;
  serve::ClusterStats cluster;
};

/// Appends the server's own STATS fields — `totals`' connection and request
/// counters, plus `connections_open` — in the one order that STATS replies
/// and nas_served --stats-json both emit.
void append_server_fields(const ServerTotals& totals,
                          std::uint64_t connections_open,
                          util::JsonObject* fields);

class Server {
 public:
  /// Binds and listens immediately (so `port()` is valid before `run`),
  /// but accepts nothing until `run` starts.  Throws on bind failure.
  Server(serve::ShardedCluster& cluster, const ServerOptions& options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves until `request_stop`.  Call at most once.
  void run();

  /// Async-signal-safe stop: first call drains gracefully, second call
  /// exits the loop without waiting.  Callable from any thread or from a
  /// signal handler.
  void request_stop();

  [[nodiscard]] std::uint16_t port() const { return bound_port_; }
  [[nodiscard]] const ServerTotals& totals() const { return totals_; }

 private:
  struct Connection;
  class Impl;

  serve::ShardedCluster& cluster_;
  const ServerOptions options_;
  UniqueFd listen_fd_;
  std::uint16_t bound_port_ = 0;
  WakeupPipe wakeup_;
  std::atomic<unsigned> stop_requests_{0};
  ServerTotals totals_;
};

}  // namespace nas::net
