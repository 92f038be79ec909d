// The serving workloads: a real nas_served on the prepared v2 snapshot,
// driven over loopback TCP.  Set-up is spawn -> listening -> warm-up
// answered; the timed window is a closed loop of two connections, cut into
// slices with a reference-clock sample on the daemon's CPU between them.
// Every answer is compared with the reference computed in the prepare step.
#include <poll.h>
#include <sched.h>

#include <algorithm>
#include <iostream>

#include "apps/distance_oracle.hpp"
#include "graph/bfs.hpp"
#include "refclock.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

constexpr int kSessions = 5;
// The timed window is cut into slices of kSlice_s; between two slices no
// command is in flight and the client samples the reference clock on the
// daemon's CPU (kSlicePasses passes over the H-sized graph, ~2.5 ms: each
// command's work is BFS passes over H or the path to them).
constexpr double kSlice_s = 0.25;
constexpr int kSlicePasses = 8;

std::span<const std::uint32_t> slice(const std::vector<std::uint32_t>& ref,
                                     const Commands& cmds, std::size_t i) {
  return {ref.data() + cmds.start[i], cmds.start[i + 1] - cmds.start[i]};
}

std::uint64_t json_u64(const std::string& json, const std::string& key) {
  const std::string mark = "\"" + key + "\":";
  const auto at = json.find(mark);
  if (at == std::string::npos) {
    throw std::runtime_error("STATS reply has no " + key + ": " + json);
  }
  return std::stoull(json.substr(at + mark.size()));
}

/// Where a serving session runs: nas_served (every thread) on one CPU, the
/// client on another.  With the daemon pinned, the client can take
/// reference-clock samples on the daemon's own CPU between slices of a
/// timed window.  Both are the last two CPUs this process may use (one CPU
/// for both when it may use only one).
struct Cpus {
  int daemon = 0;
  int client = 0;
};

const Cpus& serving_cpus() {
  static const Cpus cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    std::vector<int> allowed;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) allowed.push_back(c);
    }
    const int last = allowed.back();
    return Cpus{last, allowed.size() > 1 ? allowed[allowed.size() - 2] : last};
  }();
  return cpus;
}

/// Moves the calling thread to `cpu`.
void pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("cannot pin to CPU " + std::to_string(cpu));
  }
}

/// One reference sample on the daemon's CPU, taken while its threads idle.
double daemon_cpu_factor(RefClock& clock) {
  pin_self(serving_cpus().daemon);
  const double f = clock.factor(RefClock::Graph::kSmall, kSlicePasses);
  pin_self(serving_cpus().client);
  return f;
}

/// A timed window: the slices' wall-clock totals, and the same times taken
/// against the reference clock (each slice scaled by the mean of the
/// samples before and after it).
struct Timed {
  Window win;
  std::vector<double> rtt_adj_s;
  double wall_adj_s = 0;
};

Timed timed_window(Session& s, const Workload& w, const Reference& ref,
                   double seconds, RefClock& clock, Report& rep) {
  Timed t;
  double f = daemon_cpu_factor(clock);
  std::uint64_t first = 0;
  const double t0 = now_s();
  while (now_s() - t0 < seconds) {
    const Window slice = closed_loop(s, w, ref, kSlice_s, 0, first, rep);
    const double f_next = daemon_cpu_factor(clock);
    const double k = 0.5 * (f + f_next);
    f = f_next;
    for (const double r : slice.rtt_s) {
      t.win.rtt_s.push_back(r);
      t.rtt_adj_s.push_back(r * k);
    }
    t.win.commands += slice.commands;
    t.win.requests += slice.requests;
    t.win.wall_s += slice.wall_s;
    t.wall_adj_s += slice.wall_s * k;
    first += slice.commands;
    if (slice.broken) {
      t.win.broken = true;
      break;
    }
  }
  return t;
}

}  // namespace

std::string expected_reply(const Commands& cmds,
                           const std::vector<std::uint32_t>& ref,
                           std::size_t i) {
  std::string out;
  render_answers(cmds.at(i), slice(ref, cmds, i), out);
  return out;
}

Counters Counters::operator-(const Counters& o) const {
  return {requests - o.requests,         distinct_sources - o.distinct_sources,
          cache_hits - o.cache_hits,     bfs_passes - o.bfs_passes,
          evictions - o.evictions,       protocol_errors - o.protocol_errors};
}

std::string describe(const Counters& c) {
  return "requests=" + std::to_string(c.requests) +
         " distinct_sources=" + std::to_string(c.distinct_sources) +
         " cache_hits=" + std::to_string(c.cache_hits) +
         " bfs_passes=" + std::to_string(c.bfs_passes) +
         " evictions=" + std::to_string(c.evictions) +
         " protocol_errors=" + std::to_string(c.protocol_errors);
}

Counters read_stats(Conn& c) {
  c.send("STATS\n");
  const std::string json = c.recv_lines(1, kReplyTimeout_s);
  return {json_u64(json, "requests"),   json_u64(json, "distinct_sources"),
          json_u64(json, "cache_hits"), json_u64(json, "bfs_passes"),
          json_u64(json, "evictions"),  json_u64(json, "protocol_errors")};
}

Session launch(const std::string& daemon_exe, const std::string& snapshot,
               const Workload& w, const Reference& ref, Report& rep) {
  Session s;
  pin_self(serving_cpus().daemon);  // the daemon inherits the mask
  s.daemon = std::make_unique<Daemon>(
      daemon_exe, std::vector<std::string>{"--load", snapshot,
                                           "--snapshot-format", "v2",
                                           "--port", "0"});
  pin_self(serving_cpus().client);
  const std::uint16_t port = s.daemon->wait_ready(30.0);
  s.conn[0] = std::make_unique<Conn>(port);
  s.conn[1] = std::make_unique<Conn>(port);
  std::string text;
  for (std::size_t i = 0; i < w.warm.size(); ++i) {
    text.clear();
    w.warm.render(i, text);
    s.conn[0]->send(text);
    const std::string reply =
        s.conn[0]->recv_lines(w.warm.at(i).size(), kReplyTimeout_s);
    rep.attempt(reply == expected_reply(w.warm, ref.warm, i),
                "warm-up answer");
  }
  return s;
}

Window closed_loop(Session& s, const Workload& w, const Reference& ref,
                   double seconds, std::uint64_t count, std::uint64_t first,
                   Report& rep) {
  struct Slot {
    bool busy = false;
    std::size_t lines = 0;
    double sent = 0;
    std::string expect;
  };
  Slot slot[2];
  Window win;
  std::uint64_t next = first;
  std::string text, reply;
  const double t0 = now_s();
  const auto more = [&] {
    return seconds > 0 ? now_s() - t0 < seconds : next < first + count;
  };
  const auto issue = [&](int c) {
    const std::size_t i = next++ % w.main.size();
    text.clear();
    w.main.render(i, text);
    slot[c] = {true, w.main.at(i).size(), 0,
               expected_reply(w.main, ref.main, i)};
    slot[c].sent = now_s();
    s.conn[c]->send(text);
  };
  for (int c = 0; c < 2; ++c) {
    if (more()) issue(c);
  }
  while (slot[0].busy || slot[1].busy) {
    pollfd fds[2];
    int polled[2];
    nfds_t nf = 0;
    for (int c = 0; c < 2; ++c) {
      if (!slot[c].busy) continue;
      fds[nf] = {s.conn[c]->fd(), POLLIN, 0};
      polled[nf++] = c;
    }
    const int ready =
        ::poll(fds, nf, static_cast<int>(kReplyTimeout_s * 1e3));
    if (ready == 0) {
      rep.attempt(false, "reply timeout");
      win.broken = true;
      return win;
    }
    for (nfds_t k = 0; k < nf; ++k) {
      if (fds[k].revents == 0) continue;
      const int c = polled[k];
      Conn& conn = *s.conn[c];
      if (!conn.pump()) {
        rep.attempt(false, "connection closed by nas_served");
        win.broken = true;
        return win;
      }
      const bool err = conn.error_pending();
      if (!conn.take_lines(err ? 1 : slot[c].lines, &reply)) continue;
      const double t = now_s();
      win.rtt_s.push_back(t - slot[c].sent);
      rep.attempt(!err && reply == slot[c].expect, "served answer");
      ++win.commands;
      win.requests += slot[c].lines;
      win.wall_s = t - t0;
      slot[c].busy = false;
      if (err) {
        win.broken = true;  // the reply framing is lost
        return win;
      }
      if (more()) issue(c);
    }
  }
  return win;
}

void in_order(Session& s, const Workload& w, const Reference& ref,
              std::uint64_t count, Report& rep) {
  std::string text;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::size_t i = k % w.main.size();
    Conn& conn = *s.conn[k % 2];
    text.clear();
    w.main.render(i, text);
    conn.send(text);
    const std::string reply =
        conn.recv_lines(w.main.at(i).size(), kReplyTimeout_s);
    rep.attempt(reply == expected_reply(w.main, ref.main, i), "served answer");
  }
}

double shutdown(Session& s, Report& rep) {
  const double rss = s.daemon->peak_rss_mb();
  s.conn[0].reset();
  s.conn[1].reset();
  rep.attempt(s.daemon->stop(), "nas_served drains and exits 0");
  return rss;
}

int cmd_reference(Args& args) {
  const std::string snapshot = args.str("snapshot");
  const std::string stream = args.str("stream");
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const Size size = size_named(args.str("size"));
  const std::string out = args.str("out");
  args.reject_unknown();

  const auto oracle = nas::apps::SpannerDistanceOracle::load_file(snapshot);
  const nas::graph::Graph& h = oracle.spanner();
  const Workload w = make_workload(stream, h.num_vertices(), seed, size);
  Reference ref;
  ref.stream_digest = digest(w);
  ref.warm.resize(w.warm.pairs.size());
  ref.main.resize(w.main.pairs.size());
  // One reference BFS per distinct source (the smaller endpoint).
  struct Slot {
    std::uint32_t source, target;
    std::uint32_t* dist;
  };
  std::vector<Slot> todo;
  for (auto [cmds, dist] : {std::pair{&w.warm, &ref.warm},
                            std::pair{&w.main, &ref.main}}) {
    for (std::size_t i = 0; i < cmds->pairs.size(); ++i) {
      const Pair& p = cmds->pairs[i];
      todo.push_back({std::min(p.u, p.v), std::max(p.u, p.v), &(*dist)[i]});
    }
  }
  std::sort(todo.begin(), todo.end(), [](const Slot& a, const Slot& b) {
    return a.source < b.source;
  });
  nas::graph::BfsResult bfs;
  for (std::size_t k = 0; k < todo.size(); ++k) {
    if (k == 0 || todo[k].source != todo[k - 1].source) {
      bfs = nas::graph::bfs(h, todo[k].source);
    }
    *todo[k].dist = bfs.dist[todo[k].target];
  }
  write_reference(ref, out);
  return 0;
}

int cmd_serve(Args& args) {
  const std::string stream = args.str("stream");
  const std::string snapshot = args.str("snapshot");
  const std::string ref_path = args.str("ref");
  const std::string daemon_exe = args.str("daemon");
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const double seconds = args.real("seconds");
  const Size size = size_named(args.str("size"));
  args.reject_unknown();

  const auto oracle = nas::apps::SpannerDistanceOracle::load_file(snapshot);
  const Workload w = make_workload(stream, oracle.num_vertices(), seed, size);
  const Reference ref = read_reference(ref_path);
  if (ref.stream_digest != digest(w)) {
    throw std::runtime_error("reference file does not match the stream");
  }
  Report rep;

  // kSessions daemons in turn, each set up (timed), serving its share of
  // the timed window from main command 0, and shut down.  Each metric is
  // the median over the sessions: on a shared 4-core VM one daemon
  // process can put a session 10-20% off its siblings.
  RefClock clock;
  std::vector<double> setup, rss, qps, p50;
  for (int i = 0; i < kSessions; ++i) {
    const double f0 = daemon_cpu_factor(clock);
    const double t0 = now_s();
    Session s = launch(daemon_exe, snapshot, w, ref, rep);
    const double setup_wall = now_s() - t0;
    setup.push_back(setup_wall * 0.5 * (f0 + daemon_cpu_factor(clock)));
    const Counters before = read_stats(*s.conn[0]);
    const Timed timed =
        timed_window(s, w, ref, seconds / kSessions, clock, rep);
    const Window& win = timed.win;
    if (!win.broken) {
      const Counters d = read_stats(*s.conn[0]) - before;
      rep.check(d.requests == win.requests, "STATS requests != sent requests");
      rep.check(d.protocol_errors == 0, "protocol errors in the window");
      rep.check(d.cache_hits + d.bfs_passes == d.distinct_sources,
                "hits + passes != distinct sources: " + describe(d));
      if (stream == "hot") {
        rep.check(d.cache_hits == win.commands && d.bfs_passes == 0 &&
                      d.evictions == 0,
                  "hot set not resident: " + describe(d));
      }
    }
    rss.push_back(shutdown(s, rep));
    if (win.broken) break;  // counted as a failure; the run is not correct
    qps.push_back(static_cast<double>(win.requests) / timed.wall_adj_s);
    p50.push_back(1e3 * quantile(timed.rtt_adj_s, 0.5));
    const double qps_wall = static_cast<double>(win.requests) / win.wall_s;
    std::cerr << w.name << " session " << i << ": setup " << setup.back()
              << " s (wall " << setup_wall << "), " << win.commands
              << " commands, " << qps.back() << " q/s (wall " << qps_wall
              << "), p50 " << p50.back() << " ms (wall "
              << 1e3 * quantile(win.rtt_s, 0.5) << "), p99 wall "
              << 1e3 * quantile(win.rtt_s, 0.99) << " ms\n";
  }

  if (qps.empty()) throw std::runtime_error("no serving session completed");

  // run.py adds the construction metrics of the served graph (from the
  // prepare step) and ok_frac.
  rep.add("setup_s", median(setup), "s");
  rep.add("spanner_edges", static_cast<double>(oracle.spanner_edges()),
          "edges");
  rep.add("qps", median(qps), "q/s");
  rep.add("latency_p50_ms", median(p50), "ms");
  rep.add("peak_rss_mb", median(rss), "MB");
  std::cout << rep.json() << std::endl;
  return 0;
}

}  // namespace bench
