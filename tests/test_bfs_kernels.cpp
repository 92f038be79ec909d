// Tests for the direction-optimizing BFS kernel layer (graph/bfs_kernel).
//
// The contract under test is byte-identity: distances are level structure,
// independent of traversal order and direction, so top-down, hybrid, and
// auto must produce identical distance arrays on every graph — and the
// serving layer built on them must produce identical answers at every
// thread count.  A run stopped at its targets must give the reference
// distance of every target it was asked for.  The epoch-tagged scratch
// additionally has a 16-bit wrap path that only fires after 65535 reuses;
// that wrap is exercised here.  The bit-parallel multi-source BFS must give
// every lane the single-source distances of its source.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "graph/bfs.hpp"
#include "graph/bfs_kernel.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/multi_source_bfs.hpp"

namespace {

using namespace nas;
using graph::BfsKernel;
using graph::BfsKernelStats;
using graph::BfsScratch;
using graph::Csr;
using graph::Graph;
using graph::kInfDist;
using graph::MultiSourceBfs;
using graph::Vertex;

constexpr std::array<BfsKernel, 3> kKernels = {
    BfsKernel::kTopDown, BfsKernel::kHybrid, BfsKernel::kAuto};

/// Distance array via the retired-queue-compatible reference (graph::bfs).
std::vector<std::uint32_t> reference_dist(const Graph& g, Vertex s) {
  return graph::bfs(g, s).dist;
}

/// Distance array via the kernel under test, through a fresh scratch.
std::vector<std::uint32_t> kernel_dist(const Csr& csr, Vertex s,
                                       BfsKernel kernel) {
  BfsScratch scratch;
  std::vector<std::uint32_t> dist(csr.num_vertices());
  graph::bfs_kernel_into(csr, s, dist, scratch, kernel);
  return dist;
}

/// The stopped runs from `s` against its reference row `want`: stopped at
/// one target, a duplicated target, the source itself, a mixed set, and
/// every sampled target (about 32, `s` among them), on every kernel.  A
/// stopped run's distances must be exact wherever they are finite.
/// `scratch` is shared across sources, so stopped runs and full runs
/// interleave on one epoch space.
void expect_targeted_searches_match(const Csr& csr, Vertex s,
                                    const std::vector<std::uint32_t>& want,
                                    BfsScratch& scratch,
                                    const std::string& what) {
  const Vertex n = csr.num_vertices();
  const Vertex stride = std::max<Vertex>(1, n / 32);
  std::vector<Vertex> sample;
  for (Vertex t = s % stride; t < n; t += stride) sample.push_back(t);
  const Vertex far = sample.back();
  const std::vector<std::vector<Vertex>> target_sets = {
      {far}, {far, far}, {s}, {sample.front(), far, s, far}, sample};
  for (const auto& targets : target_sets) {
    for (const auto kernel : kKernels) {
      scratch.run(csr, s, targets, kernel);
      for (const Vertex t : targets) {
        EXPECT_EQ(scratch.distance(t), want[t])
            << what << ", source " << s << ", target " << t << ", kernel "
            << graph::bfs_kernel_name(kernel);
      }
      for (Vertex v = 0; v < n; ++v) {
        if (scratch.distance(v) != kInfDist) {
          EXPECT_EQ(scratch.distance(v), want[v])
              << what << ", source " << s << ", vertex " << v;
        }
      }
    }
  }
}

void expect_all_kernels_match_reference(const Graph& g,
                                        const std::string& what) {
  const auto csr = Csr::from_graph(g);
  BfsScratch scratch;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    const auto want = reference_dist(g, s);
    for (const auto kernel : kKernels) {
      EXPECT_EQ(kernel_dist(csr, s, kernel), want)
          << what << ", source " << s << ", kernel "
          << graph::bfs_kernel_name(kernel);
    }
    expect_targeted_searches_match(csr, s, want, scratch, what);
  }
}

// Every kernel reproduces the reference distances from every source on all
// six workload families the benches sweep — the hub-heavy shapes where
// hybrid actually switches direction (er_dense, ba) and the flat ones where
// auto must stay top-down (grid, path) — and so do the stopped runs, for
// every sampled target.
TEST(BfsKernel, MatchesReferenceOnWorkloadFamilies) {
  const std::array<const char*, 6> families = {"er",   "er_dense", "ba",
                                               "grid", "path",     "star"};
  for (const auto* family : families) {
    const Graph g = graph::make_workload(family, 250, 7);
    expect_all_kernels_match_reference(g, family);
  }
}

TEST(BfsKernel, MatchesReferenceOnAwkwardShapes) {
  // Disconnected: two components plus an isolated vertex — bottom-up scans
  // must not claim vertices outside the source's component, and a run
  // stopped at a target in another component must read kInfDist for it.
  // n < 32, so every vertex is a sampled target.
  const Graph two = Graph::from_edges(9, {{0, 1}, {1, 2}, {2, 0},
                                          {4, 5}, {5, 6}, {6, 7}});
  expect_all_kernels_match_reference(two, "disconnected");
  // Single vertex and empty edge set: the frontier dies immediately.
  expect_all_kernels_match_reference(Graph::from_edges(1, {}), "single");
  expect_all_kernels_match_reference(Graph::from_edges(5, {}), "edgeless");
  // Star: one bottom-up-friendly level from the hub, n-1 from a leaf.
  expect_all_kernels_match_reference(graph::star(64), "star");
  // Path: maximal level count, frontier of 1 throughout.
  expect_all_kernels_match_reference(graph::path(65), "path");
}

TEST(BfsKernel, UnreachableAndAccessors) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {4, 5}});
  const auto csr = Csr::from_graph(g);
  for (const auto kernel : kKernels) {
    BfsScratch scratch;
    scratch.run(csr, 0, kernel);
    EXPECT_EQ(scratch.distance(0), 0u);
    EXPECT_EQ(scratch.distance(2), 2u);
    EXPECT_EQ(scratch.distance(3), kInfDist);
    EXPECT_EQ(scratch.distance(4), kInfDist);
    ASSERT_EQ(scratch.reached().size(), 3u);
    EXPECT_EQ(scratch.reached().front(), 0u);  // source is discovered first
    std::vector<std::uint32_t> dist(6);
    scratch.copy_distances(dist);
    EXPECT_EQ(dist, reference_dist(g, 0));
  }
}

TEST(BfsKernel, SourceOutOfRangeThrows) {
  const auto csr = Csr::from_graph(graph::path(4));
  BfsScratch scratch;
  EXPECT_THROW(scratch.run(csr, 4), std::invalid_argument);
  EXPECT_THROW(scratch.run(csr, 100), std::invalid_argument);
  const std::vector<Vertex> bad_target{1, 4};
  EXPECT_THROW(scratch.run(csr, 0, bad_target), std::invalid_argument);
}

// A truncated run can never become a cached row: after a run stopped before
// its frontier emptied, copy_distances() throws.
// A stopped run whose target lies outside the component exhausts the
// component and stays readable, and the next full run is readable again.
TEST(BfsKernel, TruncatedSearchesRefuseFullArrays) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {4, 5}});
  const auto csr = Csr::from_graph(g);
  BfsScratch scratch;
  std::vector<std::uint32_t> dist(6);

  const std::vector<Vertex> near{1};
  scratch.run(csr, 0, near);
  EXPECT_EQ(scratch.distance(1), 1u);
  EXPECT_EQ(scratch.distance(3), kInfDist);  // beyond the stopping level
  EXPECT_THROW(scratch.copy_distances(dist), std::logic_error);

  const std::vector<Vertex> unreachable{5};
  scratch.run(csr, 0, unreachable);
  EXPECT_EQ(scratch.distance(5), kInfDist);
  scratch.copy_distances(dist);
  EXPECT_EQ(dist, reference_dist(g, 0));

  scratch.run(csr, 0, near);
  scratch.run(csr, 4);
  scratch.copy_distances(dist);
  EXPECT_EQ(dist, reference_dist(g, 4));
}

// The work a stopped run saves: on a path, a run stopped at a near target
// never sees the far end.
TEST(BfsKernel, TargetedSearchesStopEarly) {
  const auto csr = Csr::from_graph(graph::path(101));
  BfsScratch scratch;
  BfsKernelStats full, stopped;
  scratch.run(csr, 0, BfsKernel::kTopDown, &full);
  EXPECT_EQ(full.edges_inspected, 200u);  // 2|E|
  const std::vector<Vertex> targets{3, 5, 5};
  scratch.run(csr, 0, targets, BfsKernel::kTopDown, &stopped);
  EXPECT_EQ(stopped.top_down_levels, 5u);
  EXPECT_EQ(stopped.edges_inspected, 9u);  // the source's 1 + 4 levels of 2
}

TEST(BfsKernel, CopyDistancesRejectsWrongSize) {
  const auto csr = Csr::from_graph(graph::path(4));
  BfsScratch scratch;
  scratch.run(csr, 0);
  std::vector<std::uint32_t> wrong(3);
  EXPECT_THROW(scratch.copy_distances(wrong), std::invalid_argument);
}

TEST(BfsKernel, StatsCountLevelsAndEdges) {
  const auto csr = Csr::from_graph(graph::make_workload("er_dense", 400, 3));
  BfsScratch scratch;
  BfsKernelStats topdown, hybrid;
  scratch.run(csr, 0, BfsKernel::kTopDown, &topdown);
  scratch.run(csr, 0, BfsKernel::kHybrid, &hybrid);
  EXPECT_GT(topdown.edges_inspected, 0u);
  EXPECT_EQ(topdown.bottom_up_levels, 0u);
  EXPECT_GT(topdown.top_down_levels, 0u);
  // Dense ER is the direction-optimizing sweet spot: the hybrid run must
  // actually switch, and switching must save work.
  EXPECT_GT(hybrid.bottom_up_levels, 0u);
  EXPECT_LT(hybrid.edges_inspected, topdown.edges_inspected);

  // A frontier that passes the alpha test but will not take in the rest of
  // the graph next level must stay top-down: on geometric graphs (where
  // auto runs hybrid) and hypercubes, going bottom-up there inspects more
  // edges than top-down does.
  const std::array<std::tuple<const char*, Vertex, BfsKernel>, 2> no_worse = {{
      {"geometric", 2000, BfsKernel::kAuto},
      {"hypercube", 1024, BfsKernel::kHybrid},
  }};
  for (const auto& [family, n, kernel] : no_worse) {
    const auto g = Csr::from_graph(graph::make_workload(family, n, 3));
    BfsKernelStats base, tried;
    scratch.run(g, 0, BfsKernel::kTopDown, &base);
    scratch.run(g, 0, kernel, &tried);
    EXPECT_LE(tried.edges_inspected, base.edges_inspected) << family;
  }

  // Serving always runs kAuto, so pin what it resolves to: hybrid on the
  // hub-heavy families (where it does go bottom-up), top-down on the flat
  // ones (where it never does).
  const std::array<std::pair<const char*, BfsKernel>, 4> resolves_to = {{
      {"er_dense", BfsKernel::kHybrid},
      {"ba", BfsKernel::kHybrid},
      {"grid", BfsKernel::kTopDown},
      {"path", BfsKernel::kTopDown},
  }};
  for (const auto& [family, kernel] : resolves_to) {
    const auto g = Csr::from_graph(graph::make_workload(family, 400, 3));
    BfsKernelStats automatic, want;
    scratch.run(g, 0, BfsKernel::kAuto, &automatic);
    scratch.run(g, 0, kernel, &want);
    EXPECT_EQ(automatic.edges_inspected, want.edges_inspected) << family;
    EXPECT_EQ(automatic.top_down_levels, want.top_down_levels) << family;
    EXPECT_EQ(automatic.bottom_up_levels, want.bottom_up_levels) << family;
    if (kernel == BfsKernel::kHybrid) {
      EXPECT_GT(automatic.bottom_up_levels, 0u) << family;
    } else {
      EXPECT_EQ(automatic.bottom_up_levels, 0u) << family;
    }
  }
}

// One scratch reused past the 16-bit epoch space: after the wrap flushes the
// cells' epoch tags, stale tags from 65535 runs ago must not leak into
// distance().  Run 1 leaves epoch 1 on the cells of {3, 4}; runs 2..65535
// stay inside {0, 1, 2}.  The wrap hands epoch 1 to run 65536, which must
// read vertex 4 as unreached.  Past the wrap, runs alternate between the
// components.
TEST(BfsKernel, EpochWrapAfter64kReuses) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const auto csr = Csr::from_graph(g);
  const auto want0 = reference_dist(g, 0);
  const auto want3 = reference_dist(g, 3);
  constexpr std::uint32_t kWrap = 1u << 16;  // the run that reuses epoch 1
  BfsScratch scratch;
  std::vector<std::uint32_t> dist(5);
  scratch.run(csr, 3, BfsKernel::kTopDown);
  for (std::uint32_t run = 2; run < kWrap + 50; ++run) {
    const Vertex s = run > kWrap && run % 2 == 1 ? Vertex{3} : Vertex{0};
    scratch.run(csr, s, BfsKernel::kTopDown);
    scratch.copy_distances(dist);
    ASSERT_EQ(dist, s == 0 ? want0 : want3) << "run " << run;
    ASSERT_EQ(scratch.distance(s == 0 ? 4 : 0), kInfDist) << "run " << run;
  }
}

// Resizing between graphs of different vertex counts resets the epoch
// space; distances on the new graph must be exact immediately.
TEST(BfsKernel, ReuseAcrossDifferentGraphs) {
  const Graph small = graph::path(4);
  const Graph big = graph::make_workload("er", 200, 11);
  const auto small_csr = Csr::from_graph(small);
  const auto big_csr = Csr::from_graph(big);
  BfsScratch scratch;
  for (int round = 0; round < 3; ++round) {
    scratch.run(small_csr, 0);
    std::vector<std::uint32_t> dist(small.num_vertices());
    scratch.copy_distances(dist);
    EXPECT_EQ(dist, reference_dist(small, 0));
    scratch.run(big_csr, 5);
    std::vector<std::uint32_t> big_dist(big.num_vertices());
    scratch.copy_distances(big_dist);
    EXPECT_EQ(big_dist, reference_dist(big, 5));
  }
}

// The serving contract end-to-end: the oracle runs kAuto, which resolves to
// hybrid on ba (bottom-up levels included), and its batches at 1, 2, and 8
// query shards must all equal the graph::bfs reference.
TEST(BfsKernel, OracleBatchesMatchReferenceAcrossThreads) {
  const Graph g = graph::make_workload("ba", 300, 5);
  std::vector<apps::Query> queries;
  std::vector<std::uint32_t> want;
  for (Vertex i = 0; i < 120; ++i) {
    const apps::Query q{static_cast<Vertex>((i * 7) % 300),
                        static_cast<Vertex>((i * 13 + 1) % 300)};
    queries.push_back(q);
    want.push_back(reference_dist(g, q.u)[q.v]);
  }
  const apps::SpannerDistanceOracle oracle(g, 1.0, 0.0);
  for (const unsigned threads : {1u, 2u, 8u}) {
    EXPECT_EQ(oracle.batch_query(queries, threads), want)
        << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// MultiSourceBfs: up to 64 lanes per pass, one 16-bit row per lane.

/// Lane `lane` of `rows` (n entries each) with kUnreached read as kInfDist,
/// so it compares directly with a graph::bfs distance array.
std::vector<std::uint32_t> lane_row(const std::vector<std::uint16_t>& rows,
                                    std::size_t lane, Vertex n) {
  std::vector<std::uint32_t> row(n);
  for (Vertex v = 0; v < n; ++v) {
    const std::uint16_t d = rows[lane * n + v];
    row[v] = d == MultiSourceBfs::kUnreached ? kInfDist : d;
  }
  return row;
}

/// One pass from `lanes` sources strided over g's IDs: every lane's row
/// equals graph::bfs from its source, and the pass inspects no more edges
/// than top-down does from each source in turn (exactly as many with one
/// lane).
void expect_lanes_match_reference(const Graph& g, std::size_t lanes,
                                  MultiSourceBfs& pass,
                                  const std::string& what) {
  const auto csr = Csr::from_graph(g);
  const Vertex n = g.num_vertices();
  std::vector<Vertex> sources;
  for (std::size_t i = 0; i < lanes; ++i) {
    sources.push_back(static_cast<Vertex>((i * 37 + 3) % n));
  }
  std::vector<std::uint16_t> rows(lanes * n);
  BfsKernelStats stats;
  pass.run(csr, sources, rows, &stats);
  BfsScratch scratch;
  std::uint64_t topdown_edges = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    EXPECT_EQ(lane_row(rows, lane, n), reference_dist(g, sources[lane]))
        << what << ", " << lanes << " lanes, lane " << lane << ", source "
        << sources[lane];
    BfsKernelStats single;
    scratch.run(csr, sources[lane], BfsKernel::kTopDown, &single);
    topdown_edges += single.edges_inspected;
  }
  EXPECT_LE(stats.edges_inspected, topdown_edges) << what << ", " << lanes;
  if (lanes == 1) {
    EXPECT_EQ(stats.edges_inspected, topdown_edges) << what;
  }
  EXPECT_EQ(stats.bottom_up_levels, 0u) << what;
}

// Every lane reproduces graph::bfs at 1, 2, 63 and 64 lanes, on sparse and
// dense families, on a dumbbell (two dense blobs joined by a path) and on a
// graph of two components and an isolated vertex, where each lane reads
// kUnreached outside its source's component.  One instance serves every
// case, so its reuse across graphs is covered too.
TEST(MultiSourceBfs, EveryLaneMatchesReference) {
  const Graph two = Graph::from_edges(
      21, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {5, 6}, {7, 8},
           {8, 9}, {9, 10}, {10, 11}, {11, 12}, {12, 7}, {9, 13}, {13, 14},
           {14, 15}, {15, 16}, {16, 17}, {17, 18}, {18, 19}});
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"er", graph::make_workload("er", 250, 7)},
      {"grid", graph::make_workload("grid", 250, 7)},
      {"caveman", graph::make_workload("caveman", 250, 7)},
      {"dumbbell", graph::make_workload("dumbbell", 250, 7)},
      {"two components", two},
  };
  MultiSourceBfs pass;
  for (const auto& [name, g] : graphs) {
    for (const std::size_t lanes : {1U, 2U, 63U, 64U}) {
      expect_lanes_match_reference(g, lanes, pass, name);
    }
  }
  // The isolated vertex 20 and the other component stay unreached.
  const auto csr = Csr::from_graph(two);
  const std::vector<Vertex> sources{0, 20, 9};
  std::vector<std::uint16_t> rows(3 * 21);
  pass.run(csr, sources, rows);
  EXPECT_EQ(rows[0 * 21 + 6], 4u);
  EXPECT_EQ(rows[0 * 21 + 7], MultiSourceBfs::kUnreached);
  EXPECT_EQ(rows[1 * 21 + 20], 0u);
  EXPECT_EQ(rows[1 * 21 + 0], MultiSourceBfs::kUnreached);
  EXPECT_EQ(rows[2 * 21 + 19], 7u);
  EXPECT_EQ(rows[2 * 21 + 20], MultiSourceBfs::kUnreached);
}

// Duplicate sources share a frontier entry but each lane still gets its
// own row; a one-vertex graph fills every lane with distance 0; and one
// instance reused across graphs of different n is exact on each.
TEST(MultiSourceBfs, DuplicatesSingleVertexAndReuse) {
  const Graph g = graph::make_workload("er", 200, 11);
  const auto csr = Csr::from_graph(g);
  const Vertex n = g.num_vertices();
  MultiSourceBfs pass;
  const std::vector<Vertex> dup{5, 5, 0, 5, 0};
  std::vector<std::uint16_t> rows(dup.size() * n);
  pass.run(csr, dup, rows);
  for (std::size_t lane = 0; lane < dup.size(); ++lane) {
    EXPECT_EQ(lane_row(rows, lane, n), reference_dist(g, dup[lane]))
        << "lane " << lane;
  }

  const auto one = Csr::from_graph(Graph::from_edges(1, {}));
  const std::vector<Vertex> zeros(MultiSourceBfs::kMaxLanes, 0);
  std::vector<std::uint16_t> one_rows(zeros.size(), 7);
  BfsKernelStats stats;
  pass.run(one, zeros, one_rows, &stats);
  EXPECT_EQ(one_rows, std::vector<std::uint16_t>(zeros.size(), 0));
  EXPECT_EQ(stats.edges_inspected, 0u);

  const Graph small = graph::path(4);
  const auto small_csr = Csr::from_graph(small);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint16_t> small_rows(2 * 4);
    const std::vector<Vertex> ends{0, 3};
    pass.run(small_csr, ends, small_rows);
    EXPECT_EQ(lane_row(small_rows, 0, 4), reference_dist(small, 0));
    EXPECT_EQ(lane_row(small_rows, 1, 4), reference_dist(small, 3));
    const std::vector<Vertex> two{17, 150};
    std::vector<std::uint16_t> big_rows(2 * std::size_t{n});
    pass.run(csr, two, big_rows);
    EXPECT_EQ(lane_row(big_rows, 0, n), reference_dist(g, 17));
    EXPECT_EQ(lane_row(big_rows, 1, n), reference_dist(g, 150));
  }
}

TEST(MultiSourceBfs, RejectsBadArguments) {
  const auto csr = Csr::from_graph(graph::path(4));
  MultiSourceBfs pass;
  std::vector<std::uint16_t> rows(65 * 4);
  const std::vector<Vertex> none;
  EXPECT_THROW(pass.run(csr, none, std::span(rows).first(0)),
               std::invalid_argument);
  const std::vector<Vertex> too_many(65, 0);
  EXPECT_THROW(pass.run(csr, too_many, rows), std::invalid_argument);
  const std::vector<Vertex> out_of_range{0, 4};
  EXPECT_THROW(pass.run(csr, out_of_range, std::span(rows).first(8)),
               std::invalid_argument);
  const std::vector<Vertex> two{0, 3};
  EXPECT_THROW(pass.run(csr, two, std::span(rows).first(7)),
               std::invalid_argument);
  EXPECT_THROW(pass.run(csr, two, std::span(rows).first(9)),
               std::invalid_argument);
  pass.run(csr, two, std::span(rows).first(8));  // the right size runs

  // One vertex past what 16-bit rows can hold.
  const auto huge = Csr::from_graph(
      Graph::from_edges(MultiSourceBfs::kMaxVertices + 1, {}));
  const std::vector<Vertex> first{0};
  std::vector<std::uint16_t> huge_row(huge.num_vertices());
  EXPECT_THROW(pass.run(huge, first, huge_row), std::invalid_argument);
}

}  // namespace
