// Tests for the sharded serving-cluster layer (src/serve): partitioner
// coverage and determinism, router plan/merge round-trips, cluster answers
// byte-identical across shard counts {1,2,8} x thread counts {1,2,8} x both
// partitioners and equal to the single-oracle baseline, deterministic
// cluster counters and their lifetime sums, cluster work metrics, snapshot
// warmup, and the runner's cluster axes.  Per the repo's single-core bench
// policy these tests assert determinism, never wall-clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "apps/query_workload.hpp"
#include "core/elkin_matar.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "run/runner.hpp"
#include "run/sinks.hpp"
#include "serve/cluster.hpp"
#include "serve/partition.hpp"
#include "serve/router.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace nas;
using apps::Query;
using apps::SpannerDistanceOracle;
using graph::Graph;
using graph::Vertex;
using serve::ClusterOptions;
using serve::ClusterStats;
using serve::Partitioner;
using serve::PartitionKind;
using serve::Router;
using serve::ShardedCluster;

core::SpannerResult build_result(const Graph& g) {
  const auto params = core::Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  return core::build_spanner(g, params, {.validate = false});
}

// --- partitioner -------------------------------------------------------------

TEST(Partitioner, ParseAndName) {
  EXPECT_EQ(serve::parse_partition("hash"), PartitionKind::kHash);
  EXPECT_EQ(serve::parse_partition("range"), PartitionKind::kRange);
  EXPECT_THROW((void)serve::parse_partition("modulo"), std::invalid_argument);
  EXPECT_EQ(serve::partition_name(PartitionKind::kHash), "hash");
  EXPECT_EQ(serve::partition_name(PartitionKind::kRange), "range");
}

TEST(Partitioner, RejectsDegenerateUniverses) {
  EXPECT_THROW(Partitioner(PartitionKind::kHash, 0, 100),
               std::invalid_argument);
  EXPECT_THROW(Partitioner(PartitionKind::kRange, 4, 0),
               std::invalid_argument);
  const Partitioner p(PartitionKind::kHash, 4, 100);
  EXPECT_THROW((void)p.shard_of(100), std::invalid_argument);
}

TEST(Partitioner, EveryVertexOwnedByExactlyOneValidShard) {
  const Vertex n = 1000;
  for (const auto kind : {PartitionKind::kHash, PartitionKind::kRange}) {
    for (const unsigned shards : {1u, 2u, 3u, 8u, 64u}) {
      const Partitioner p(kind, shards, n);
      std::vector<std::uint64_t> owned(shards, 0);
      for (Vertex v = 0; v < n; ++v) {
        const auto s = p.shard_of(v);
        ASSERT_LT(s, shards);
        ++owned[s];
        // Determinism: a second partitioner with the same spec agrees.
        EXPECT_EQ(Partitioner(kind, shards, n).shard_of(v), s);
      }
      EXPECT_EQ(std::accumulate(owned.begin(), owned.end(), std::uint64_t{0}),
                n);
    }
  }
}

TEST(Partitioner, RangeMatchesThreadPoolShardBlocks) {
  // The range partitioner must be the exact inverse of the canonical
  // ThreadPool::shard block split.
  const Vertex n = 997;  // prime: exercises uneven blocks
  for (const unsigned shards : {1u, 2u, 5u, 8u}) {
    const Partitioner p(PartitionKind::kRange, shards, n);
    for (unsigned s = 0; s < shards; ++s) {
      const auto [begin, end] = util::ThreadPool::shard(n, shards, s);
      for (std::size_t v = begin; v < end; ++v) {
        EXPECT_EQ(p.shard_of(static_cast<Vertex>(v)), s);
      }
    }
  }
}

TEST(Partitioner, PairRoutingIsOrientationInvariant) {
  const Partitioner p(PartitionKind::kHash, 8, 500);
  for (Vertex u = 0; u < 50; ++u) {
    for (Vertex v = 0; v < 50; ++v) {
      EXPECT_EQ(p.shard_of_pair(u, v), p.shard_of_pair(v, u));
      EXPECT_EQ(p.shard_of_pair(u, v), p.shard_of(std::min(u, v)));
    }
  }
}

// --- router ------------------------------------------------------------------

TEST(Router, PlanCoversEveryRequestOnceInArrivalOrder) {
  const Partitioner p(PartitionKind::kRange, 4, 100);
  const Router router(p);
  const auto batch =
      apps::make_query_workload(100, {"uniform", 400, 42, 0.99});
  const auto plan = router.plan(batch);

  ASSERT_EQ(plan.queries.size(), 4u);
  ASSERT_EQ(plan.slots.size(), 4u);
  std::vector<int> seen(batch.size(), 0);
  for (unsigned s = 0; s < 4; ++s) {
    ASSERT_EQ(plan.queries[s].size(), plan.slots[s].size());
    for (std::size_t i = 0; i < plan.slots[s].size(); ++i) {
      const auto slot = plan.slots[s][i];
      ++seen[slot];
      // The sub-batch entry is the original request, routed correctly.
      EXPECT_EQ(plan.queries[s][i].u, batch[slot].u);
      EXPECT_EQ(plan.queries[s][i].v, batch[slot].v);
      EXPECT_EQ(p.shard_of_pair(batch[slot].u, batch[slot].v), s);
      // Arrival order within the shard.
      if (i > 0) {
        EXPECT_LT(plan.slots[s][i - 1], slot);
      }
    }
  }
  for (const auto count : seen) EXPECT_EQ(count, 1);
}

TEST(Router, PlanRejectsOutOfRangeVertices) {
  const Partitioner p(PartitionKind::kHash, 2, 10);
  const Router router(p);
  const std::vector<Query> bad{{3, 10}};
  EXPECT_THROW((void)router.plan(bad), std::invalid_argument);
}

TEST(Router, MergeScattersBackToBatchOrder) {
  const Partitioner p(PartitionKind::kRange, 2, 10);
  const Router router(p);
  // Vertices 0-4 -> shard 0, 5-9 -> shard 1 (routing key = min endpoint).
  const std::vector<Query> batch{{7, 8}, {1, 2}, {9, 6}, {0, 3}};
  const auto plan = router.plan(batch);
  ASSERT_EQ(plan.queries[0].size(), 2u);
  ASSERT_EQ(plan.queries[1].size(), 2u);
  EXPECT_EQ(plan.shards_used(), 2u);

  const std::vector<std::vector<std::uint32_t>> shard_answers{{11, 13},
                                                              {17, 19}};
  const auto merged = Router::merge(plan, shard_answers, batch.size());
  EXPECT_EQ(merged, (std::vector<std::uint32_t>{17, 11, 19, 13}));

  EXPECT_THROW((void)Router::merge(plan, {{1}, {2}}, batch.size()),
               std::invalid_argument);
}

// --- cluster -----------------------------------------------------------------

TEST(ShardedCluster, ByteIdenticalAcrossShardsThreadsAndPartitions) {
  for (const char* family : {"er", "grid", "ba"}) {
    const Graph g = graph::make_workload(family, 220, 3);
    const auto result = build_result(g);
    const double mult = result.params.stretch_multiplicative();
    const double add = result.params.stretch_additive();
    const auto batch =
        apps::make_query_workload(g.num_vertices(), {"zipf", 500, 11, 0.99});

    // Baseline: one plain oracle over the same spanner.
    const SpannerDistanceOracle baseline(Graph(result.spanner), mult, add);
    const auto expected = baseline.batch_query(batch, 1);

    for (const char* partition : {"hash", "range"}) {
      for (const unsigned shards : {1u, 2u, 8u}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
          ShardedCluster cluster(
              result.spanner, mult, add,
              {.shards = shards, .partition = partition});
          ClusterStats stats;
          const auto answers = cluster.serve(batch, threads, &stats);
          ASSERT_EQ(answers, expected)
              << family << " shards=" << shards << " threads=" << threads
              << " partition=" << partition;
          EXPECT_EQ(stats.requests, batch.size());
          EXPECT_LE(stats.shards_used, shards);
        }
      }
    }
  }
}

TEST(ShardedCluster, CountersAreDeterministicAndThreadIndependent) {
  const Graph g = graph::make_workload("er", 200, 5);
  const auto result = build_result(g);
  const double mult = result.params.stretch_multiplicative();
  const double add = result.params.stretch_additive();
  const auto batch =
      apps::make_query_workload(g.num_vertices(), {"zipf", 400, 7, 0.99});

  const ClusterOptions options{.shards = 4,
                               .partition = "hash",
                               .shard_cache_budget_bytes =
                                   8ull * g.num_vertices()};
  ClusterStats reference;
  {
    ShardedCluster cluster(result.spanner, mult, add, options);
    (void)cluster.serve(batch, 1, &reference);
  }
  ASSERT_EQ(reference.per_shard.size(), 4u);
  // Sub-batch sizes sum to the batch; totals sum over shards.
  // At 8n bytes a shard holds two rows.  Its caches start empty and the
  // ring has nothing to readmit, so a shard builds rows for its first two
  // missed sources and searches the rest without one.
  const std::uint64_t row = g.num_vertices() * sizeof(std::uint32_t);
  std::uint64_t requests = 0, bfs = 0, edges = 0;
  for (const auto& c : reference.per_shard) {
    requests += c.requests;
    bfs += c.bfs_passes;
    edges += c.edges_inspected;
    EXPECT_EQ(c.row_bytes, std::min<std::uint64_t>(c.bfs_passes, 2) * row);
  }
  EXPECT_EQ(requests, batch.size());
  EXPECT_EQ(bfs, reference.bfs_passes);
  EXPECT_EQ(edges, reference.edges_inspected);
  EXPECT_GT(reference.edges_inspected, 0u);

  for (const unsigned threads : {2u, 8u}) {
    ShardedCluster cluster(result.spanner, mult, add, options);
    ClusterStats stats;
    (void)cluster.serve(batch, threads, &stats);
    EXPECT_EQ(stats.shards_used, reference.shards_used);
    EXPECT_EQ(stats.distinct_sources, reference.distinct_sources);
    EXPECT_EQ(stats.cache_hits, reference.cache_hits);
    EXPECT_EQ(stats.bfs_passes, reference.bfs_passes);
    EXPECT_EQ(stats.evictions, reference.evictions);
    EXPECT_EQ(stats.edges_inspected, reference.edges_inspected);
    EXPECT_EQ(stats.row_bytes, reference.row_bytes);
    EXPECT_EQ(stats.digest(), reference.digest()) << "threads=" << threads;
    for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
      EXPECT_EQ(stats.per_shard[s].requests,
                reference.per_shard[s].requests);
      EXPECT_EQ(stats.per_shard[s].bfs_passes,
                reference.per_shard[s].bfs_passes);
      EXPECT_EQ(stats.per_shard[s].evictions,
                reference.per_shard[s].evictions);
      EXPECT_EQ(stats.per_shard[s].edges_inspected,
                reference.per_shard[s].edges_inspected);
      EXPECT_EQ(stats.per_shard[s].row_bytes,
                reference.per_shard[s].row_bytes);
    }
  }
}

// Every shard searches the one relabelled spanner the cluster built, and
// still answers and counts as the input-order cluster did: ten 64-query
// zipf batches over geometric (IDs random with respect to position), 3 hash
// shards, totals pinned from that cluster at three budgets.
TEST(ShardedCluster, GeometricAnswersEqualBfsAndCountersStayPinned) {
  const Graph g = graph::make_workload("geometric", 600, 7);
  const Graph h = build_result(g).spanner;
  const auto queries =
      apps::make_query_workload(g.num_vertices(), {"zipf", 640, 11, 0.99});
  std::vector<std::uint32_t> expected;
  for (const auto& q : queries) expected.push_back(graph::bfs(h, q.u).dist[q.v]);

  // {edges_inspected, bfs_passes, row_bytes, evictions} per batch.
  using Counts = std::array<std::uint64_t, 4>;
  const std::map<std::uint64_t, std::vector<Counts>> pinned = {
      {0,
       {{35365, 55, 0, 0}, {35592, 52, 0, 0}, {29553, 52, 0, 0},
        {32798, 52, 0, 0}, {32118, 48, 0, 0}, {33618, 60, 0, 0},
        {32412, 55, 0, 0}, {34673, 55, 0, 0}, {35271, 57, 0, 0},
        {39722, 56, 0, 0}}},
      {std::uint64_t{8} * g.num_vertices(),
       {{38862, 55, 14400, 0}, {33390, 49, 0, 0}, {26630, 48, 0, 0},
        {31819, 51, 0, 0}, {29993, 46, 0, 0}, {32852, 58, 2400, 1},
        {31037, 52, 0, 0}, {33898, 53, 0, 0}, {33924, 55, 2400, 1},
        {37830, 54, 0, 0}}},
      {std::uint64_t{64} << 20,
       {{67870, 55, 132000, 0}, {41956, 34, 81600, 0}, {39488, 32, 76800, 0},
        {37020, 30, 72000, 0}, {24680, 20, 48000, 0}, {35786, 29, 69600, 0},
        {24680, 20, 48000, 0}, {24680, 20, 48000, 0}, {24680, 20, 48000, 0},
        {23446, 19, 45600, 0}}},
  };
  constexpr std::size_t kBatch = 64;
  for (const auto& [budget, want] : pinned) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      ShardedCluster cluster(h, 1.0, 0.0,
                             {.shards = 3,
                              .partition = "hash",
                              .shard_cache_budget_bytes = budget});
      for (unsigned s = 1; s < cluster.num_shards(); ++s) {
        ASSERT_TRUE(cluster.shard(s).search_csr().shares_storage_with(
            cluster.shard(0).search_csr()));
      }
      for (std::size_t b = 0; b < queries.size(); b += kBatch) {
        ClusterStats stats;
        const auto answers = cluster.serve(
            std::span(queries).subspan(b, kBatch), threads, &stats);
        const std::string where = "budget=" + std::to_string(budget) +
                                  " threads=" + std::to_string(threads) +
                                  " batch=" + std::to_string(b / kBatch);
        ASSERT_TRUE(std::equal(answers.begin(), answers.end(),
                               expected.begin() +
                                   static_cast<std::ptrdiff_t>(b)))
            << where;
        EXPECT_EQ((Counts{stats.edges_inspected, stats.bfs_passes,
                          stats.row_bytes, stats.evictions}),
                  want[b / kBatch])
            << where;
      }
    }
  }
}

TEST(ShardedCluster, RepeatedBatchesHitShardCaches) {
  const Graph g = graph::make_workload("er", 150, 2);
  const auto result = build_result(g);
  ShardedCluster cluster(result.spanner,
                         result.params.stretch_multiplicative(),
                         result.params.stretch_additive(),
                         {.shards = 4, .partition = "hash"});
  const auto batch =
      apps::make_query_workload(g.num_vertices(), {"zipf", 200, 3, 0.99});
  ClusterStats first, second;
  const auto a1 = cluster.serve(batch, 2, &first);
  const auto a2 = cluster.serve(batch, 2, &second);
  EXPECT_EQ(a1, a2);
  EXPECT_GT(first.bfs_passes, 0u);
  // The same batch replayed is fully cache-hot: every distinct source was
  // inserted into its owning shard's cache by the first batch.
  EXPECT_EQ(second.bfs_passes, 0u);
  EXPECT_EQ(second.cache_hits, second.distinct_sources);
}

TEST(ShardedCluster, StatsAccumulateAcrossServes) {
  const Graph g = graph::make_workload("er", 160, 2);
  const auto result = build_result(g);
  ShardedCluster cluster(result.spanner,
                         result.params.stretch_multiplicative(),
                         result.params.stretch_additive(),
                         {.shards = 4, .partition = "range"});
  const auto batch =
      apps::make_query_workload(g.num_vertices(), {"uniform", 200, 3, 0.99});
  // Range partition: both requests route to shard 0 (min endpoint < n/4).
  const std::vector<Query> low{{0, 100}, {1, 150}};
  ClusterStats first, second, lifetime;
  (void)cluster.serve(batch, 2, &first);
  (void)cluster.serve(low, 2, &second);
  ASSERT_EQ(first.shards_used, 4u);
  ASSERT_EQ(second.shards_used, 1u);
  lifetime += first;
  lifetime += second;

  EXPECT_EQ(lifetime.requests, batch.size() + low.size());
  EXPECT_EQ(lifetime.distinct_sources,
            first.distinct_sources + second.distinct_sources);
  EXPECT_EQ(lifetime.cache_hits, first.cache_hits + second.cache_hits);
  EXPECT_EQ(lifetime.bfs_passes, first.bfs_passes + second.bfs_passes);
  EXPECT_EQ(lifetime.evictions, first.evictions + second.evictions);
  ASSERT_EQ(lifetime.per_shard.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    const auto& a = first.per_shard[s];
    const auto& b = second.per_shard[s];
    const auto& sum = lifetime.per_shard[s];
    EXPECT_EQ(sum.requests, a.requests + b.requests) << "shard " << s;
    EXPECT_EQ(sum.distinct_sources, a.distinct_sources + b.distinct_sources);
    EXPECT_EQ(sum.cache_hits, a.cache_hits + b.cache_hits);
    EXPECT_EQ(sum.bfs_passes, a.bfs_passes + b.bfs_passes);
    EXPECT_EQ(sum.evictions, a.evictions + b.evictions);
  }
  // shards_used counts shards that ever received a request: recomputed from
  // the merged per-shard requests, not summed (which would give 5).
  EXPECT_EQ(lifetime.shards_used, 4u);
}

TEST(ShardedCluster, MetricsTrackWorkDeterministically) {
  const Graph g = graph::make_workload("er", 150, 4);
  const auto result = build_result(g);
  const double mult = result.params.stretch_multiplicative();
  const double add = result.params.stretch_additive();
  const auto batch =
      apps::make_query_workload(g.num_vertices(), {"uniform", 100, 1, 0.99});

  const auto run_digest = [&](unsigned threads) {
    ShardedCluster cluster(result.spanner, mult, add, {.shards = 2});
    (void)cluster.serve(batch, threads);
    (void)cluster.serve(batch, threads);
    EXPECT_EQ(cluster.metrics().serve_calls, 2u);
    EXPECT_EQ(cluster.metrics().batch_requests.total(), 2u);
    EXPECT_EQ(cluster.metrics().batch_requests.sum(), 2 * batch.size());
    return cluster.metrics().work_digest();
  };
  // The work digest — which excludes the serve-latency histogram — is
  // byte-stable across thread counts and fresh runs.
  const auto d1 = run_digest(1);
  EXPECT_EQ(run_digest(2), d1);
  EXPECT_EQ(run_digest(8), d1);

  // The rendered schemas carry their full key sets: METRICS (the digest and
  // both histograms) and the cluster core of STATS and --stats-json.
  ShardedCluster cluster(result.spanner, mult, add, {.shards = 2});
  ClusterStats stats;
  (void)cluster.serve(batch, 1, &stats);
  const auto keys = [](const util::JsonObject& fields) {
    std::vector<std::string> out;
    for (const auto& field : fields) out.push_back(field.first);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(keys(serve::cluster_metrics_fields(cluster)),
            (std::vector<std::string>{
                "batch_requests_count", "batch_requests_le",
                "batch_requests_sum", "batch_requests_total",
                "metrics_digest", "serve_calls", "serve_latency_ms_count",
                "serve_latency_ms_le", "serve_latency_ms_sum",
                "serve_latency_ms_total", "shards"}));
  EXPECT_EQ(keys(serve::cluster_stats_fields(cluster, stats)),
            (std::vector<std::string>{
                "bfs_passes", "cache_hits", "counter_digest",
                "distinct_sources", "edges_inspected", "evictions",
                "partition", "requests", "row_bytes", "shard_bfs",
                "shard_cache_capacity", "shard_hits", "shard_requests",
                "shards", "shards_used", "universe"}));
}

TEST(ShardedCluster, ZeroBudgetShardsStillAnswerIdentically) {
  const Graph g = graph::make_workload("grid", 144, 1);
  const auto result = build_result(g);
  const double mult = result.params.stretch_multiplicative();
  const double add = result.params.stretch_additive();
  const auto batch =
      apps::make_query_workload(g.num_vertices(), {"uniform", 300, 9, 0.99});

  const SpannerDistanceOracle baseline(Graph(result.spanner), mult, add);
  const auto expected = baseline.batch_query(batch, 1);

  ShardedCluster cluster(result.spanner, mult, add,
                         {.shards = 4,
                          .partition = "range",
                          .shard_cache_budget_bytes = 0});
  ClusterStats stats;
  EXPECT_EQ(cluster.serve(batch, 2, &stats), expected);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ShardedCluster, RejectsBadOptions) {
  const Graph g = graph::make_workload("er", 60, 1);
  const auto result = build_result(g);
  const double mult = result.params.stretch_multiplicative();
  const double add = result.params.stretch_additive();
  EXPECT_THROW(ShardedCluster(result.spanner, mult, add, {.shards = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      ShardedCluster(result.spanner, mult, add,
                     {.shards = 2, .partition = "bogus"}),
      std::invalid_argument);
}

// --- snapshot warmup ---------------------------------------------------------

TEST(ShardedCluster, WarmsFromOneSnapshotReplicated) {
  const Graph g = graph::make_workload("er", 180, 4);
  const auto result = build_result(g);
  const SpannerDistanceOracle built{core::SpannerResult(result)};
  const std::string path = testing::TempDir() + "cluster_snapshot.naso";
  built.save_file(path);

  const auto batch =
      apps::make_query_workload(g.num_vertices(), {"zipf", 300, 13, 0.99});
  const auto expected = built.batch_query(batch, 1);

  auto cluster = ShardedCluster::from_snapshot_files(
      {path}, {.shards = 4, .partition = "hash"});
  EXPECT_EQ(cluster.num_shards(), 4u);
  EXPECT_EQ(cluster.multiplicative(), built.multiplicative());
  EXPECT_EQ(cluster.additive(), built.additive());
  EXPECT_EQ(cluster.serve(batch, 2), expected);
}

TEST(ShardedCluster, WarmsFromPerShardSnapshots) {
  const Graph g = graph::make_workload("grid", 100, 2);
  const auto result = build_result(g);
  const SpannerDistanceOracle built{core::SpannerResult(result)};
  std::vector<std::string> paths;
  for (int s = 0; s < 3; ++s) {
    paths.push_back(testing::TempDir() + "shard" + std::to_string(s) +
                    ".naso");
    built.save_file(paths.back());
  }
  const auto batch =
      apps::make_query_workload(g.num_vertices(), {"uniform", 200, 1, 0.99});
  auto cluster = ShardedCluster::from_snapshot_files(
      paths, {.shards = 3, .partition = "range"});
  EXPECT_EQ(cluster.serve(batch, 2), built.batch_query(batch, 1));
}

TEST(ShardedCluster, SnapshotWarmupErrorContract) {
  EXPECT_THROW((void)ShardedCluster::from_snapshot_files({}, {.shards = 2}),
               std::runtime_error);

  const Graph g = graph::make_workload("er", 80, 1);
  const auto result = build_result(g);
  const SpannerDistanceOracle built{core::SpannerResult(result)};
  const std::string path = testing::TempDir() + "mismatch_a.naso";
  built.save_file(path);

  // Wrong path count: 2 snapshots for 3 shards.
  EXPECT_THROW((void)ShardedCluster::from_snapshot_files({path, path},
                                                         {.shards = 3}),
               std::runtime_error);

  // Disagreeing universes across per-shard snapshots.
  const Graph g2 = graph::make_workload("er", 90, 1);
  const auto result2 = build_result(g2);
  const SpannerDistanceOracle built2{core::SpannerResult(result2)};
  const std::string path2 = testing::TempDir() + "mismatch_b.naso";
  built2.save_file(path2);
  EXPECT_THROW((void)ShardedCluster::from_snapshot_files({path, path2},
                                                         {.shards = 2}),
               std::runtime_error);

  // Same universe and guarantee but different structure: the edge-count
  // drift guard must reject it (answers would otherwise depend on routing).
  const Graph h1 = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph h2 = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  const std::string path3 = testing::TempDir() + "mismatch_c.naso";
  const std::string path4 = testing::TempDir() + "mismatch_d.naso";
  SpannerDistanceOracle(Graph(h1), 3.0, 2.0).save_file(path3);
  SpannerDistanceOracle(Graph(h2), 3.0, 2.0).save_file(path4);
  EXPECT_THROW((void)ShardedCluster::from_snapshot_files({path3, path4},
                                                         {.shards = 2}),
               std::runtime_error);
}

// --- runner integration ------------------------------------------------------

TEST(RunnerCluster, ClusterAxisKeepsDigestAndFillsClusterColumns) {
  run::ScenarioMatrix matrix;
  matrix.set("family", "er");
  matrix.set("n", "200");
  matrix.set("eps", "0.5");
  matrix.set("workload", "uniform");
  matrix.set("queries", "150");
  matrix.set("cluster-shards", "1, 2, 8");
  matrix.set("partition", "hash, range");
  const auto specs = matrix.expand();
  ASSERT_EQ(specs.size(), 5u);  // one shard (1) takes one partition

  run::Runner runner;
  const auto rows = runner.run(specs);
  for (const auto& row : rows) {
    ASSERT_TRUE(row.ok) << row.error;
    ASSERT_TRUE(row.served);
    EXPECT_EQ(row.oracle_digest, rows.front().oracle_digest)
        << row.spec.id();
    EXPECT_EQ(row.cluster.requests, 150u);
    EXPECT_GE(row.cluster.shards_used, 1u);
    EXPECT_LE(row.cluster.shards_used, row.spec.cluster_shards);
  }

  // The cluster axes are visible in the id and the sink schema.
  EXPECT_NE(rows.back().spec.id().find("/cs=8/range"), std::string::npos);
  const auto fields = run::row_fields(rows.back());
  bool saw_shards = false, saw_partition = false, saw_used = false;
  for (const auto& [key, value] : fields) {
    saw_shards |= key == "cluster_shards";
    saw_partition |= key == "cluster_partition";
    saw_used |= key == "cluster_shards_used";
  }
  EXPECT_TRUE(saw_shards);
  EXPECT_TRUE(saw_partition);
  EXPECT_TRUE(saw_used);
}

}  // namespace
