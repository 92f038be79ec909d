// Driving a nas_served daemon over the wire protocol: launch and warm-up,
// STATS counters, and the request windows.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "daemon.hpp"
#include "inputs.hpp"

namespace bench {

inline constexpr double kReplyTimeout_s = 5.0;

/// The reply nas_served must send to command `i` of `cmds`, whose pairs'
/// reference distances are `ref` (aligned with `cmds.pairs`).
[[nodiscard]] std::string expected_reply(const Commands& cmds,
                                         const std::vector<std::uint32_t>& ref,
                                         std::size_t i);

/// The five cache counters plus protocol errors, from one STATS reply.
struct Counters {
  std::uint64_t requests = 0;
  std::uint64_t distinct_sources = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t bfs_passes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t protocol_errors = 0;
  Counters operator-(const Counters& o) const;
  bool operator==(const Counters& o) const = default;
};
[[nodiscard]] Counters read_stats(Conn& c);
[[nodiscard]] std::string describe(const Counters& c);

/// A running daemon on the prepared snapshot, with the two client
/// connections every window uses.
struct Session {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Conn> conn[2];
};

/// Spawns nas_served with default serving flags on `snapshot`, pinned to one
/// CPU, moves the calling thread to another (see serve.cpp), connects,
/// and answers the warm-up on connection 0, one command at a time (so the
/// daemon's cache history is fixed).  Every warm-up answer is checked.
[[nodiscard]] Session launch(const std::string& daemon_exe,
                             const std::string& snapshot, const Workload& w,
                             const Reference& ref, Report& rep);

/// The timed part of one window.
struct Window {
  std::vector<double> rtt_s;    ///< per command
  std::uint64_t commands = 0;
  std::uint64_t requests = 0;  ///< pairs answered
  double wall_s = 0;
  bool broken = false;  ///< a timeout, a close or an ERR ended it early
};

/// Closed loop over both connections, one command in flight on each, from
/// main command `first` on.  Runs for `seconds` (if > 0) or `count`
/// commands.  The daemon may interleave the two connections in either order.
[[nodiscard]] Window closed_loop(Session& s, const Workload& w,
                                 const Reference& ref, double seconds,
                                 std::uint64_t count, std::uint64_t first,
                                 Report& rep);

/// `count` commands from main command 0 on, alternating connections with a
/// single command in flight, so the daemon sees exactly this order.
void in_order(Session& s, const Workload& w, const Reference& ref,
              std::uint64_t count, Report& rep);

/// Reads peak RSS, then stops the daemon and checks it exited 0.
double shutdown(Session& s, Report& rep);

}  // namespace bench
