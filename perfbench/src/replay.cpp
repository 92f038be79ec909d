// The traced run: one in-process replay of each pipeline on the workload's
// seed, with a span around every call into a layer's public functions.
//
// Construction half: build_spanner's phase loop replayed through
// run_algorithm1 / compute_ruling_set / build_superclusters / interconnect,
// asserted equal to build_spanner (edge set and every ledger section), then
// sampled verification, BFS kernel passes on CSR(G) and CSR(H), and a v2
// snapshot save and load.
//
// Serving half: a nas_served session answers the warm-up and a window of
// commands in a fixed order, then the same commands are replayed in process
// (parse -> ShardedCluster::serve -> write_answers), through a twin oracle,
// through a BatchBridge round trip, and as BfsScratch passes.  The replay
// is deterministic, so its counters must equal the daemon's STATS deltas.
//
// Unlike the timed runs, this file calls layer internals; an API change may
// break it without touching the end-to-end numbers.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "apps/distance_oracle.hpp"
#include "apps/query_workload.hpp"
#include "core/cluster.hpp"
#include "core/elkin_matar.hpp"
#include "core/interconnect.hpp"
#include "core/popular.hpp"
#include "core/ruling_set.hpp"
#include "core/supercluster.hpp"
#include "graph/bfs_kernel.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "net/batch_bridge.hpp"
#include "net/protocol.hpp"
#include "serve/cluster.hpp"
#include "serving.hpp"
#include "trace.hpp"
#include "verify/stretch.hpp"
#include "workloads.hpp"

namespace bench {

// --- Tracer ------------------------------------------------------------------

Tracer::Scope Tracer::span(const std::string& name, std::int64_t request) {
  return Scope(*this, open(name, request));
}

int Tracer::open(const std::string& name, std::int64_t request) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, 0, 0, stack_.empty() ? -1 : stack_.back(), request});
  stack_.push_back(id);
  spans_.back().start = now_s();
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  stack_.pop_back();
}

double Tracer::total_s(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.end - s.start;
  }
  return t;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out.precision(17);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start\": " << s.start << ", \"end\": " << s.end << "}\n";
  }
}

namespace {

using nas::graph::Graph;
using nas::graph::Vertex;

constexpr std::uint32_t kBfsSources = 256;

struct BfsTotals {
  std::uint64_t passes = 0;
  std::uint64_t edges = 0;
  std::uint64_t reached = 0;
  double seconds = 0;
};

/// BfsScratch::run from each source, one span per pass, after one untimed
/// pass that sizes the scratch (the oracle keeps its scratch warm too).
BfsTotals bfs_passes(Tracer& tr, const std::string& name,
                     const nas::graph::Csr& g,
                     const std::vector<Vertex>& sources) {
  BfsTotals tot;
  nas::graph::BfsScratch scratch;
  nas::graph::BfsKernelStats st;
  if (!sources.empty()) scratch.run(g, sources.front());
  for (const Vertex s : sources) {
    {
      auto span = tr.span(name);
      scratch.run(g, s, nas::graph::BfsKernel::kAuto, &st);
    }
    ++tot.passes;
    tot.edges += st.edges_inspected;
    tot.reached += scratch.reached().size();
  }
  tot.seconds = tr.total_s(name);
  return tot;
}

void add_bfs(Report& rep, const std::string& prefix, const BfsTotals& t,
             bool with_reached) {
  const auto passes = static_cast<double>(t.passes);
  rep.add(prefix + ".pass_us", 1e6 * t.seconds / passes, "us");
  rep.add(prefix + ".edges_per_pass", static_cast<double>(t.edges) / passes,
          "edges");
  if (with_reached) {
    rep.add(prefix + ".reached_per_pass",
            static_cast<double>(t.reached) / passes, "vertices");
  }
}

// --- construction half -------------------------------------------------------

struct Replayed {
  nas::graph::EdgeSet edges;
  nas::congest::Ledger ledger;
  std::uint64_t knowledge = 0;  ///< sum of Algorithm-1 knowledge-list sizes
};

/// build_spanner's phase loop (validate off), through the public phase
/// functions.
Replayed replay_phases(const Graph& g, const nas::core::Params& params,
                       Tracer& tr) {
  using namespace nas::core;
  Replayed out{nas::graph::EdgeSet(g.num_vertices()), {}, 0};
  ClusterState clusters(g.num_vertices());
  nas::congest::Ledger& ledger = out.ledger;
  auto root = tr.span("core.build");
  for (int i = 0; i <= params.ell(); ++i) {
    const PhaseSchedule& sched = params.phase(i);
    const std::vector<Vertex> centers = clusters.centers();
    const std::string phase = "phase " + std::to_string(i);
    std::uint64_t cap = sched.deg;
    if (sched.concluding) {
      cap = std::max<std::uint64_t>(cap, centers.size());
      ledger.begin_section(phase + " count clusters");
      ledger.charge_rounds(2 * static_cast<std::uint64_t>(g.num_vertices()));
    }
    ledger.begin_section(phase + " algorithm1");
    const Algorithm1Result alg1 = [&] {
      auto span = tr.span("core.alg1");
      return run_algorithm1(g, centers, sched.delta, cap, &ledger);
    }();
    for (const auto& list : alg1.knowledge) out.knowledge += list.size();

    std::vector<Vertex> u_centers;
    if (!sched.concluding) {
      std::vector<Vertex> popular;
      for (const Vertex rc : centers) {
        if (alg1.popular[rc]) popular.push_back(rc);
      }
      ledger.begin_section(phase + " ruling set");
      const RulingSetResult ruling = [&] {
        auto span = tr.span("core.ruling");
        return compute_ruling_set(g, popular, sched.q, params.c(),
                                  params.ruling_base(), &ledger);
      }();
      ledger.begin_section(phase + " superclustering");
      const SuperclusterResult super = [&] {
        auto span = tr.span("core.supercluster");
        return build_superclusters(g, clusters, ruling.rulers,
                                   sched.forest_depth, sched.radius,
                                   out.edges, &ledger);
      }();
      for (const Vertex rc : centers) {
        if (super.forest_root[rc] == nas::graph::kInvalidVertex) {
          u_centers.push_back(rc);
        }
      }
    } else {
      u_centers = centers;
    }
    ledger.begin_section(phase + " interconnection");
    {
      auto span = tr.span("core.interconnect");
      (void)interconnect(g, u_centers, alg1, sched.delta, cap, out.edges,
                         &ledger);
    }
    for (const Vertex rc : u_centers) clusters.settle_cluster(rc, i);
  }
  (void)out.edges.to_graph();  // build_spanner's last step
  return out;
}

bool same_sections(const nas::congest::Ledger& a,
                   const nas::congest::Ledger& b) {
  const auto& x = a.sections();
  const auto& y = b.sections();
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].label != y[i].label || x[i].rounds != y[i].rounds ||
        x[i].messages != y[i].messages) {
      return false;
    }
  }
  return true;
}

/// "phase 3 ruling set" -> "ruling".
std::string step_of(const std::string& label) {
  static const std::map<std::string, std::string> kSteps = {
      {"algorithm1", "alg1"},
      {"ruling set", "ruling"},
      {"superclustering", "supercluster"},
      {"interconnection", "interconnect"},
      {"count clusters", "count"}};
  const auto space = label.find(' ', 6);  // after "phase <i>"
  const auto it = kSteps.find(label.substr(space + 1));
  if (it == kSteps.end()) throw std::runtime_error("unknown section " + label);
  return it->second;
}

struct ConstructHalf {
  Tracer tr;
  double overhead_frac = 0;
  BfsTotals bfs_h;
  double snapshot_load_s = 0;
  std::uint64_t snapshot_bytes = 0;
};

void construct_half(const std::string& graph_path, const std::string& work_dir,
                    std::uint64_t seed, const Size& size, ConstructHalf& half,
                    Report& rep) {
  Tracer& tr = half.tr;
  const Graph g = [&] {
    auto span = tr.span("graph.read");
    return nas::graph::read_edge_list_file(graph_path);
  }();
  const auto params =
      nas::core::Params::practical(g.num_vertices(), kEps, kKappa, kRho);

  // The first build warms the allocator and is the reference the replay
  // must equal; the second is the untraced time the overhead compares to.
  const auto built = nas::core::build_spanner(g, params, {.validate = false});
  const double t0 = now_s();
  (void)nas::core::build_spanner(g, params, {.validate = false});
  const double untraced_s = now_s() - t0;
  const Replayed replay = replay_phases(g, params, tr);
  rep.attempt(replay.edges.edges() == built.edges.edges(),
              "replayed edge set equals build_spanner's");
  rep.attempt(same_sections(replay.ledger, built.ledger),
              "replayed ledger sections equal build_spanner's");
  half.overhead_frac = tr.total_s("core.build") / untraced_s - 1.0;

  rep.add("graph.read_s", tr.total_s("graph.read"), "s");
  for (const char* step : {"alg1", "ruling", "supercluster", "interconnect"}) {
    rep.add(std::string("core.") + step + "_s",
            tr.total_s(std::string("core.") + step), "s");
  }
  rep.add("core.alg1_knowledge", static_cast<double>(replay.knowledge),
          "entries");
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> steps;
  for (const auto& s : built.ledger.sections()) {
    auto& [rounds, messages] = steps[step_of(s.label)];
    rounds += s.rounds;
    messages += s.messages;
  }
  for (const char* step :
       {"alg1", "ruling", "supercluster", "interconnect", "count"}) {
    rep.add(std::string("core.") + step + "_rounds",
            static_cast<double>(steps[step].first), "rounds");
    rep.add(std::string("core.") + step + "_messages",
            static_cast<double>(steps[step].second), "msgs");
  }

  const auto stretch = [&] {
    auto span = tr.span("verify.sampled");
    return nas::verify::verify_stretch_sampled(
        g, built.spanner, params.stretch_multiplicative(),
        params.stretch_additive(), size.verify_sources, stream_seed(seed, 5),
        1);
  }();
  rep.attempt(stretch.bound_ok && stretch.connectivity_ok,
              "sampled stretch check");
  rep.add("verify.pairs_checked", static_cast<double>(stretch.pairs_checked),
          "pairs");
  rep.add("verify.stretch_max_add", static_cast<double>(stretch.max_additive),
          "hops");

  Rng rng(stream_seed(seed, 6));
  std::vector<Vertex> sources(std::min(kBfsSources, g.num_vertices()));
  for (Vertex& s : sources) s = rng.below(g.num_vertices());
  add_bfs(rep, "graph.bfs_g",
          bfs_passes(tr, "graph.bfs_g", nas::graph::Csr::from_graph(g),
                     sources),
          false);

  const std::string snap = work_dir + "/trace.naso2";
  {
    auto span = tr.span("apps.snapshot.save");
    nas::apps::SpannerDistanceOracle(built).save_file(
        snap, nas::apps::SnapshotFormat::kV2);
  }
  const auto loaded = [&] {
    auto span = tr.span("apps.snapshot.load");
    return nas::apps::SpannerDistanceOracle::load_file(snap);
  }();
  half.snapshot_load_s = tr.total_s("apps.snapshot.load");
  half.snapshot_bytes = file_bytes(snap);
  half.bfs_h = bfs_passes(tr, "graph.bfs_h", loaded.csr(), sources);
}

// --- serving half ------------------------------------------------------------

constexpr std::uint64_t kMaxBatch = 1 << 16;  // nas_served's --max-batch
constexpr std::size_t kMaxLine = 4096;        // and its line cap

/// The requests of one command, framed and parsed as nas_served does.
std::vector<nas::apps::Query> parse_command(const std::string& text,
                                            Vertex universe) {
  std::vector<nas::apps::Query> queries;
  std::size_t pos = 0;
  std::string line;
  const auto next = [&] {
    if (nas::net::next_line(text, &pos, kMaxLine, &line) !=
        nas::net::LineStatus::kLine) {
      throw std::runtime_error("replay: unframed command " + text);
    }
  };
  next();
  const auto head = nas::net::parse_request_line(line, universe, kMaxBatch);
  if (!head.ok) throw std::runtime_error("replay: " + head.error);
  if (head.request.kind == nas::net::Request::Kind::kQuery) {
    queries.push_back(head.request.query);
    return queries;
  }
  for (std::uint64_t k = 0; k < head.request.batch_size; ++k) {
    next();
    const auto body = nas::net::parse_batch_line(line, universe);
    if (!body.ok) throw std::runtime_error("replay: " + body.error);
    queries.push_back(body.request.query);
  }
  return queries;
}

std::string render(const std::vector<nas::apps::Query>& queries,
                   const std::vector<std::uint32_t>& answers) {
  std::ostringstream os;
  nas::apps::write_answers(queries, answers, os);
  return os.str();
}

/// The wake-up pipe a BatchBridge signals completions on.
struct Pipe {
  int r = -1;
  int w = -1;
  Pipe() {
    int fds[2];
    if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    r = fds[0];
    w = fds[1];
  }
  ~Pipe() {
    ::close(r);
    ::close(w);
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
};

nas::net::BatchResult bridge_round_trip(nas::net::BatchBridge& bridge,
                                        const Pipe& wake,
                                        std::vector<nas::apps::Query> queries) {
  nas::net::BatchJob job;
  job.queries = std::move(queries);
  if (!bridge.try_submit(std::move(job))) {
    throw std::runtime_error("replay: bridge queue full");
  }
  for (;;) {
    auto done = bridge.drain_completions();
    if (!done.empty()) return std::move(done.front());
    pollfd p{wake.r, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(kReplyTimeout_s * 1e3)) == 0) {
      throw std::runtime_error("replay: bridge did not complete");
    }
    char sink[64];
    while (::read(wake.r, sink, sizeof sink) > 0) {
    }
  }
}

struct ServeHalf {
  Tracer tr;
  double overhead_frac = 0;
  BfsTotals bfs_h;
  double snapshot_load_s = 0;
  std::uint64_t snapshot_bytes = 0;
};

void serve_half(const Workload& w, const Reference& ref,
                const std::string& snapshot, const std::string& daemon_exe,
                std::uint64_t count, const Size& size, ServeHalf& half,
                Report& rep) {
  Tracer& tr = half.tr;

  // The daemon: warm-up, `count` commands in a fixed order (STATS before and
  // after), then the commands after them as the closed loop of two
  // connections that the timed runs use, for the round-trip times (at least
  // min_timed_commands of them, for the p99).
  Session session = launch(daemon_exe, snapshot, w, ref, rep);
  const Counters before = read_stats(*session.conn[0]);
  in_order(session, w, ref, count, rep);
  const Counters daemon = read_stats(*session.conn[0]) - before;
  const std::uint64_t loop_commands =
      std::max<std::uint64_t>(count, size.min_timed_commands);
  const Window loop =
      closed_loop(session, w, ref, 0, loop_commands, count, rep);
  const Counters lifetime = read_stats(*session.conn[0]);
  (void)shutdown(session, rep);
  rep.check(!loop.broken, "closed loop ended early");

  // The same commands in process.  `timed` marks the window after warm-up.
  struct Cmd {
    const Commands* cmds;
    std::size_t i;
    bool timed;
  };
  std::vector<Cmd> cmds;
  for (std::size_t i = 0; i < w.warm.size(); ++i) {
    cmds.push_back({&w.warm, i, false});
  }
  for (std::uint64_t k = 0; k < count; ++k) {
    cmds.push_back({&w.main, k % w.main.size(), true});
  }
  const auto expected = [&](const Cmd& c) {
    return expected_reply(*c.cmds, c.cmds == &w.warm ? ref.warm : ref.main,
                          c.i);
  };
  const auto text_of = [](const Cmd& c) {
    std::string text;
    c.cmds->render(c.i, text);
    return text;
  };

  const auto twin = [&] {
    auto span = tr.span("apps.snapshot.load");
    return nas::apps::SpannerDistanceOracle::load_file(snapshot);
  }();
  half.snapshot_load_s = tr.total_s("apps.snapshot.load");
  half.snapshot_bytes = file_bytes(snapshot);
  const Vertex universe = twin.num_vertices();
  const auto fresh_cluster = [&] {
    return nas::serve::ShardedCluster::from_snapshot_files({snapshot});
  };

  // parse -> serve -> render, untraced, then traced on a fresh cluster.
  double untraced_s = 0;
  {
    auto cluster = fresh_cluster();
    double t0 = 0;
    for (const Cmd& c : cmds) {
      if (c.timed && t0 == 0) t0 = now_s();
      const auto queries = parse_command(text_of(c), universe);
      (void)render(queries, cluster.serve(queries, 1));
    }
    untraced_s = now_s() - t0;
  }
  // The traced cluster, the twin oracle and a BatchBridge round trip on a
  // cluster of its own take each command in turn, so the three spans of a
  // command see the host in the same state and their differences
  // (serve.self_us, net.bridge_us) are not differences of spells.  Each
  // instance still sees the commands in stream order, as the daemon did.
  Counters replay, oracle;
  std::uint64_t bytes_in = 0, bytes_out = 0;
  {
    auto cluster = fresh_cluster();
    auto bridge_cluster = fresh_cluster();
    const Pipe wake;
    nas::net::BatchBridge bridge(bridge_cluster, 1, 64, wake.w);
    for (std::size_t k = 0; k < cmds.size(); ++k) {
      const Cmd& c = cmds[k];
      const std::string text = text_of(c);
      const auto check_bridged = [&](const nas::net::BatchResult& result) {
        rep.attempt(result.error.empty() &&
                        render(result.queries, result.answers) == expected(c),
                    "bridge answer");
      };
      if (!c.timed) {
        const auto queries = parse_command(text, universe);
        rep.attempt(render(queries, cluster.serve(queries, 1)) == expected(c),
                    "replayed warm-up answer");
        (void)twin.batch_query(queries, 1);
        check_bridged(bridge_round_trip(bridge, wake, queries));
        continue;
      }
      nas::serve::ClusterStats stats;
      std::string out;
      {
        auto cmd = tr.span("serve.cmd", static_cast<std::int64_t>(k));
        const auto queries = [&] {
          auto span = tr.span("net.parse", static_cast<std::int64_t>(k));
          return parse_command(text, universe);
        }();
        const auto answers = [&] {
          auto span = tr.span("serve.call", static_cast<std::int64_t>(k));
          return cluster.serve(queries, 1, &stats);
        }();
        auto span = tr.span("net.render", static_cast<std::int64_t>(k));
        out = render(queries, answers);
      }
      rep.attempt(out == expected(c), "replayed answer");
      replay.requests += stats.requests;
      replay.distinct_sources += stats.distinct_sources;
      replay.cache_hits += stats.cache_hits;
      replay.bfs_passes += stats.bfs_passes;
      replay.evictions += stats.evictions;
      bytes_in += text.size();
      bytes_out += out.size();

      const auto queries = parse_command(text, universe);
      nas::apps::BatchStats batch;
      {
        auto span = tr.span("apps.oracle.batch", static_cast<std::int64_t>(k));
        (void)twin.batch_query(queries, 1, &batch);
      }
      oracle.requests += batch.queries;
      oracle.distinct_sources += batch.distinct_sources;
      oracle.cache_hits += batch.cache_hits;
      oracle.bfs_passes += batch.bfs_passes;
      oracle.evictions += batch.evictions;

      nas::net::BatchResult result;
      {
        auto to_bridge = queries;
        auto span = tr.span("net.bridge", static_cast<std::int64_t>(k));
        result = bridge_round_trip(bridge, wake, std::move(to_bridge));
      }
      check_bridged(result);
    }
  }
  half.overhead_frac = tr.total_s("serve.cmd") / untraced_s - 1.0;
  rep.check(daemon == replay && daemon == oracle,
            "daemon STATS deltas " + describe(daemon) + " vs replay " +
                describe(replay) + " vs twin oracle " + describe(oracle));

  // BfsScratch passes over the window's sources (the smaller endpoint).
  std::vector<Vertex> sources;
  for (const Cmd& c : cmds) {
    if (!c.timed) continue;
    std::vector<Vertex> mine;
    for (const Pair& p : c.cmds->at(c.i)) {
      if (p.u != p.v) mine.push_back(std::min(p.u, p.v));
    }
    std::sort(mine.begin(), mine.end());
    mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
    sources.insert(sources.end(), mine.begin(), mine.end());
  }
  half.bfs_h = bfs_passes(tr, "graph.bfs_h", twin.csr(), sources);

  const auto n_cmds = static_cast<double>(count);
  const auto per_cmd_us = [&](const char* name) {
    return 1e6 * tr.total_s(name) / n_cmds;
  };
  const double parse_us = per_cmd_us("net.parse");
  const double call_us = per_cmd_us("serve.call");
  const double render_us = per_cmd_us("net.render");
  const double batch_us = per_cmd_us("apps.oracle.batch");
  const double bridge_us = per_cmd_us("net.bridge") - call_us;
  const double rtt_us = 1e6 * quantile(loop.rtt_s, 0.5);
  rep.add("net.parse_us", parse_us, "us/cmd");
  rep.add("net.render_us", render_us, "us/cmd");
  rep.add("net.bytes_in", static_cast<double>(bytes_in) / n_cmds, "B/cmd");
  rep.add("net.bytes_out", static_cast<double>(bytes_out) / n_cmds, "B/cmd");
  rep.add("net.bridge_us", bridge_us, "us/cmd");
  rep.add("net.io_us", rtt_us - (parse_us + bridge_us + call_us + render_us),
          "us/cmd");
  rep.add("net.rtt_p99_us", 1e6 * quantile(loop.rtt_s, 0.99), "us");
  rep.add("net.protocol_errors", static_cast<double>(lifetime.protocol_errors),
          "count");
  rep.add("serve.call_us", call_us, "us/cmd");
  rep.add("serve.self_us", call_us - batch_us, "us/cmd");
  rep.add("apps.oracle.batch_us", batch_us, "us/cmd");
  rep.add("apps.oracle.distinct_sources",
          static_cast<double>(oracle.distinct_sources), "count");
  rep.add("apps.oracle.cache_hits", static_cast<double>(oracle.cache_hits),
          "count");
  rep.add("apps.oracle.bfs_passes", static_cast<double>(oracle.bfs_passes),
          "count");
  rep.add("apps.oracle.evictions", static_cast<double>(oracle.evictions),
          "count");
  rep.add("apps.oracle.hit_ratio",
          static_cast<double>(oracle.cache_hits) /
              static_cast<double>(oracle.distinct_sources),
          "ratio");
  rep.add("apps.oracle.row_bytes",
          static_cast<double>(oracle.bfs_passes) * 4.0 * universe, "B");
  std::cerr << "trace " << w.name << ": rtt p50 " << rtt_us
            << " us; (bridge + io) / rtt = "
            << (rtt_us - parse_us - call_us - render_us) / rtt_us
            << "; oracle / serve.call = " << batch_us / call_us << "\n";
}

}  // namespace

int cmd_trace(Args& args) {
  const std::string workload = args.str("workload");
  const std::string graph_path = args.str("graph");
  const std::string snapshot = args.str("snapshot");
  const std::string ref_path = args.str("ref");
  const std::string daemon_exe = args.str("daemon");
  const std::string work_dir = args.str("work-dir");
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const Size size = size_named(args.str("size"));
  args.reject_unknown();
  if (workload != "construct" && workload != "serve_uniform_batch" &&
      workload != "serve_hot_single") {
    throw std::invalid_argument("unknown workload " + workload);
  }
  Report rep;

  ConstructHalf ch;
  construct_half(graph_path, work_dir, seed, size, ch, rep);

  // The serving half replays the workload's own stream; `construct` has
  // none and replays the uniform batch stream on its snapshot.
  const bool hot = workload == "serve_hot_single";
  const auto n = nas::apps::SpannerDistanceOracle::load_file(snapshot)
                     .num_vertices();
  const Workload w = make_workload(hot ? "hot" : "uniform", n, seed, size);
  const Reference ref = read_reference(ref_path);
  if (ref.stream_digest != digest(w)) {
    throw std::runtime_error("reference file does not match the stream");
  }
  ServeHalf sh;
  serve_half(w, ref, snapshot, daemon_exe,
             hot ? size.trace_single_commands : size.trace_batch_commands, size,
             sh, rep);

  // CSR(H) passes, snapshot load and tracing overhead come from the half
  // that the workload exercises.
  const bool construct = workload == "construct";
  add_bfs(rep, "graph.bfs_h", construct ? ch.bfs_h : sh.bfs_h, true);
  rep.add("apps.snapshot.load_s",
          construct ? ch.snapshot_load_s : sh.snapshot_load_s, "s");
  rep.add("apps.snapshot.bytes",
          static_cast<double>(construct ? ch.snapshot_bytes
                                        : sh.snapshot_bytes),
          "B");
  rep.add("trace.overhead_frac",
          construct ? ch.overhead_frac : sh.overhead_frac, "ratio");
  ch.tr.write(work_dir + "/spans_construct.jsonl");
  sh.tr.write(work_dir + "/spans_serve.jsonl");
  std::cout << rep.json() << std::endl;
  return 0;
}

}  // namespace bench
