// The `construct` workload: edge list -> build_spanner -> sampled stretch
// verification -> v2 snapshot save and reload -> single queries on the
// reloaded oracle.  Only stable entry points are called, so a change to a
// layer's internals can move these numbers but never break this file.
//
// One process does the work once; run.py runs several such processes in
// turn and takes the median over them.  Every timing is taken against the
// reference clock (refclock.hpp), sampled right before and after each step,
// so the host's slow and fast spells cancel out.
#include <algorithm>
#include <iostream>
#include <optional>

#include "apps/distance_oracle.hpp"
#include "apps/snapshot.hpp"
#include "core/elkin_matar.hpp"
#include "core/params.hpp"
#include "graph/bfs.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "inputs.hpp"
#include "refclock.hpp"
#include "verify/stretch.hpp"
#include "workloads.hpp"

namespace bench {

using nas::graph::Graph;

namespace {

// Set-up takes ~0.13 s and the host's speed drifts over seconds, so its
// samples are taken in three rounds spread over the process (before the
// build, after it, after verification), as the 5 s build spreads over time.
constexpr int kSetupsPerRound = 4;
constexpr int kVerifies = 2;
// Reference samples: passes per sample (each sample takes ~6-10 ms) and
// oracle queries between two samples.
constexpr int kSmallPasses = 24;
constexpr int kLargePasses = 6;
constexpr std::size_t kQueriesPerSample = 16;
constexpr int kQuerySamplePasses = 2;
using Ref = RefClock::Graph;

/// The build reads G and writes H, so it is measured against both graphs.
double build_factor(RefClock& clock) {
  return 0.5 * (clock.factor(Ref::kSmall, kSmallPasses) +
                clock.factor(Ref::kLarge, kLargePasses));
}

struct SetUp {
  Graph g;
  nas::core::Params params;
};

SetUp set_up(const std::string& graph_path) {
  Graph g = nas::graph::read_edge_list_file(graph_path);
  const auto params =
      nas::core::Params::practical(g.num_vertices(), kEps, kKappa, kRho);
  return {std::move(g), params};
}

/// One round of timed set-ups, taken against the reference clock like the
/// build (a set-up reads G and builds its adjacency); returns the last one.
SetUp time_set_ups(const std::string& graph_path, RefClock& clock,
                   std::vector<double>& out) {
  std::optional<SetUp> last;
  std::vector<double> wall;
  const double f0 = build_factor(clock);
  for (int i = 0; i < kSetupsPerRound; ++i) {
    last.reset();
    const double t0 = now_s();
    last.emplace(set_up(graph_path));
    wall.push_back(now_s() - t0);
  }
  const double k = 0.5 * (f0 + build_factor(clock));
  for (const double w : wall) out.push_back(w * k);
  return std::move(*last);
}

}  // namespace

/// One process: 3 x kSetupsPerRound set-ups, one build, verification x
/// kVerifies, snapshot round trip, single queries.  Prints the result line;
/// every timing in it is taken against the reference clock.  With
/// `--record 1` it sets up once, untimed, stops after verification and
/// reports only the construction metrics the serving workloads take from it.
int cmd_construct(Args& args) {
  const std::string graph_path = args.str("graph");
  const std::string work_dir = args.str("work-dir");
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const Size size = size_named(args.str("size"));
  const bool record = args.str("record", "0") == "1";
  args.reject_unknown();
  Report rep;

  RefClock clock;
  std::vector<double> setup;
  const SetUp in =
      record ? set_up(graph_path) : time_set_ups(graph_path, clock, setup);
  const Graph& g = in.g;

  const double build_f0 = build_factor(clock);
  const double b0 = now_s();
  const auto result =
      nas::core::build_spanner(g, in.params, {.validate = false});
  const double build_wall_s = now_s() - b0;
  const double build_s =
      build_wall_s * 0.5 * (build_f0 + build_factor(clock));
  rep.attempt(true, "build");
  if (!record) time_set_ups(graph_path, clock, setup);

  // Verification's passes run mostly over G: measured against the G-sized
  // reference graph, sampled before, between and after the verifications.
  std::vector<double> verify_s, verify_wall_s;
  std::optional<nas::verify::StretchReport> stretch;
  double verify_f = clock.factor(Ref::kLarge, kLargePasses);
  for (int i = 0; i < kVerifies; ++i) {
    const double t0 = now_s();
    const auto report = nas::verify::verify_stretch_sampled(
        g, result.spanner, result.params.stretch_multiplicative(),
        result.params.stretch_additive(), size.verify_sources,
        stream_seed(seed, 5), 1);
    const double wall = now_s() - t0;
    const double f = clock.factor(Ref::kLarge, kLargePasses);
    verify_s.push_back(wall * 0.5 * (verify_f + f));
    verify_wall_s.push_back(wall);
    verify_f = f;
    rep.attempt(report.bound_ok && report.connectivity_ok,
                "sampled stretch check");
    if (!stretch) {
      stretch = report;
    } else {
      rep.check(nas::verify::bit_identical(*stretch, report),
                "repeated verifications differ");
    }
  }

  rep.add("build_s", build_s, "s");
  rep.add("verify_s", median(verify_s), "s");
  rep.add("spanner_edges", static_cast<double>(result.edges.size()), "edges");
  rep.add("congest_rounds", static_cast<double>(result.ledger.rounds()),
          "rounds");
  rep.add("congest_messages", static_cast<double>(result.ledger.messages()),
          "msgs");
  std::cerr << "construct: |H|=" << result.edges.size() << ", build_s "
            << build_s << " (wall " << build_wall_s << "), verify_s "
            << median(verify_s) << " (wall " << median(verify_wall_s)
            << ")\n";
  if (record) {
    std::cout << rep.json() << std::endl;
    return 0;
  }
  time_set_ups(graph_path, clock, setup);

  // v2 snapshot save -> load must give back the same CSR.
  const Graph& h = result.spanner;
  const auto expect = nas::graph::Csr::from_graph(h);
  const std::string snap = work_dir + "/construct.naso2";
  nas::apps::SpannerDistanceOracle(result).save_file(
      snap, nas::apps::SnapshotFormat::kV2);
  // Cache off: each query is one BFS over CSR(H) from the smaller endpoint,
  // so the latency is the structure's, not the allocator's.
  const auto loaded = nas::apps::SpannerDistanceOracle::load_file(
      snap, {.cache_budget_bytes = 0});
  const auto& got = loaded.csr();
  rep.attempt(std::ranges::equal(got.offsets(), expect.offsets()) &&
                  std::ranges::equal(got.entries(), expect.entries()),
              "v2 snapshot round trip");

  // Each query is one BFS pass over H: measured against the H-sized
  // reference graph, sampled after every kQueriesPerSample queries.
  const auto pairs = make_pairs(g.num_vertices(), size.construct_queries, seed);
  std::vector<double> latency, latency_wall;
  std::vector<std::uint32_t> answers;
  double query_f = clock.factor(Ref::kSmall, kQuerySamplePasses);
  for (std::size_t b = 0; b < pairs.size(); b += kQueriesPerSample) {
    const std::size_t end = std::min(b + kQueriesPerSample, pairs.size());
    std::vector<double> wall;
    for (std::size_t i = b; i < end; ++i) {
      const double t0 = now_s();
      answers.push_back(loaded.query(pairs[i].u, pairs[i].v));
      wall.push_back(now_s() - t0);
    }
    const double f = clock.factor(Ref::kSmall, kQuerySamplePasses);
    for (const double w : wall) latency.push_back(w * 0.5 * (query_f + f));
    latency_wall.insert(latency_wall.end(), wall.begin(), wall.end());
    query_f = f;
  }
  double query_s = 0;
  for (const double l : latency) query_s += l;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto ref = nas::graph::bfs(h, pairs[i].u).dist[pairs[i].v];
    rep.attempt(answers[i] == ref, "query answer");
  }

  rep.add("setup_s", median(setup), "s");
  rep.add("qps", static_cast<double>(pairs.size()) / query_s, "q/s");
  rep.add("latency_p50_ms", 1e3 * quantile(latency, 0.5), "ms");
  rep.add("peak_rss_mb", self_peak_rss_mb(), "MB");
  std::cerr << "construct: setup_s " << median(setup) << ", latency_p50_ms "
            << 1e3 * quantile(latency, 0.5) << " (wall "
            << 1e3 * quantile(latency_wall, 0.5) << ")\n";
  std::cout << rep.json() << std::endl;
  return 0;
}

}  // namespace bench
