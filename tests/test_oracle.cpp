// Tests for the concurrent distance-oracle serving layer: batch-answer
// bit-identity across thread counts and cache budgets, deterministic cache
// eviction, snapshot round-trips, the malformed-snapshot corpus (mirroring
// the read_edge_list line-numbered-error contract), and the query-workload
// generator.  Per the repo's single-core bench policy these tests assert
// determinism, never wall-clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "apps/query_workload.hpp"
#include "core/elkin_matar.hpp"
#include "graph/apsp.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"

namespace {

using namespace nas;
using apps::Query;
using apps::SpannerDistanceOracle;
using core::Params;
using graph::Graph;
using graph::Vertex;

core::SpannerResult build_result(const Graph& g) {
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  return core::build_spanner(g, params, {.validate = false});
}

/// Every work counter of a batch; `shards` is left out, as it follows the
/// thread count by design.
std::vector<std::uint64_t> counters(const apps::BatchStats& s) {
  return {s.queries,   s.distinct_sources, s.cache_hits,
          s.bfs_passes, s.evictions,       s.edges_inspected,
          s.row_bytes};
}

TEST(OracleBatch, BitIdenticalAcrossThreadsAndBudgets) {
  const Graph g = graph::make_workload("er", 300, 3);
  auto result = build_result(g);
  const auto queries = apps::make_query_workload(
      g.num_vertices(), {"zipf", 600, 11, 0.99});

  // Reference: serial, unbounded-ish budget.
  const SpannerDistanceOracle reference(std::move(result));
  const auto expected = reference.batch_query(queries, 1);
  const auto expected_digest = apps::digest_answers(expected);

  const Graph& spanner = reference.spanner();
  for (const std::uint64_t budget :
       {std::uint64_t{0}, std::uint64_t{8} * g.num_vertices(),
        std::uint64_t{64} << 20}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      const SpannerDistanceOracle oracle(
          spanner, reference.multiplicative(), reference.additive(),
          {.cache_budget_bytes = budget});
      apps::BatchStats stats;
      const auto answers = oracle.batch_query(queries, threads, &stats);
      ASSERT_EQ(answers, expected)
          << "budget=" << budget << " threads=" << threads;
      EXPECT_EQ(apps::digest_answers(answers), expected_digest);
      EXPECT_EQ(stats.queries, queries.size());
      EXPECT_EQ(stats.cache_hits + stats.bfs_passes, stats.distinct_sources);
    }
  }

  // The same 600 queries as 16-query batches in sequence: sources come
  // back across batches, so at 8n bytes (two rows) refused sources return
  // while the ring holds them, are admitted, and evict.  Answers and every
  // counter, batch by batch, must not depend on the thread count.
  constexpr std::size_t kBatch = 16;
  for (const std::uint64_t budget :
       {std::uint64_t{0}, std::uint64_t{8} * g.num_vertices(),
        std::uint64_t{64} << 20}) {
    std::vector<std::vector<std::uint64_t>> want;
    std::uint64_t evictions = 0;
    for (const unsigned threads : {1u, 2u, 8u}) {
      const SpannerDistanceOracle oracle(
          spanner, reference.multiplicative(), reference.additive(),
          {.cache_budget_bytes = budget});
      std::vector<std::vector<std::uint64_t>> got;
      for (std::size_t at = 0; at < queries.size(); at += kBatch) {
        const std::span<const Query> batch(
            queries.data() + at, std::min(kBatch, queries.size() - at));
        apps::BatchStats stats;
        const auto answers = oracle.batch_query(batch, threads, &stats);
        ASSERT_TRUE(std::equal(answers.begin(), answers.end(),
                               expected.begin() +
                                   static_cast<std::ptrdiff_t>(at)))
            << "budget=" << budget << " threads=" << threads
            << " batch at " << at;
        got.push_back(counters(stats));
        if (threads == 1) evictions += stats.evictions;
      }
      got.push_back({oracle.bfs_passes(), oracle.evictions(),
                     oracle.cached_sources()});
      if (threads == 1) {
        want = got;
      } else {
        EXPECT_EQ(got, want) << "budget=" << budget << " threads=" << threads;
      }
    }
    if (budget == std::uint64_t{8} * g.num_vertices()) {
      EXPECT_GT(evictions, 0u);  // ring hits were admitted
    } else {
      EXPECT_EQ(evictions, 0u);
    }
  }
}

// --- the relabelled search graph ---------------------------------------------

// The oracle searches csr() relabelled in its BFS order.  On geometric,
// whose IDs are random with respect to position, that order differs from
// the input's everywhere, so this is where a translation slip would show.
// Answers must equal graph::bfs over the input-order spanner, and the
// counters of ten 64-query zipf batches must equal those of the oracle
// that searched in input order: cache keys, the smaller-ID rule, LRU ties
// and the refusal ring are input IDs, and top-down's edge count is the sum
// of the reached degrees, whatever the labelling.
TEST(OracleRelabel, GeometricAnswersEqualBfsAndCountersStayPinned) {
  const Graph g = graph::make_workload("geometric", 600, 7);
  const Graph h = build_result(g).spanner;
  const auto queries =
      apps::make_query_workload(g.num_vertices(), {"zipf", 640, 11, 0.99});
  std::vector<std::uint32_t> expected;
  for (const auto& q : queries) expected.push_back(graph::bfs(h, q.u).dist[q.v]);

  // {edges_inspected, bfs_passes, row_bytes, evictions} per batch, as the
  // input-order oracle counted them.
  using Counts = std::array<std::uint64_t, 4>;
  const std::map<std::uint64_t, std::vector<Counts>> pinned = {
      {0,
       {{35365, 55, 0, 0}, {35592, 52, 0, 0}, {29553, 52, 0, 0},
        {32798, 52, 0, 0}, {32118, 48, 0, 0}, {33618, 60, 0, 0},
        {32412, 55, 0, 0}, {34673, 55, 0, 0}, {35271, 57, 0, 0},
        {39722, 56, 0, 0}}},
      {std::uint64_t{8} * g.num_vertices(),
       {{36852, 55, 4800, 0}, {34363, 50, 0, 0}, {27859, 50, 0, 0},
        {32798, 52, 0, 0}, {32118, 48, 0, 0}, {32556, 59, 0, 0},
        {31413, 53, 0, 0}, {34673, 55, 0, 0}, {35964, 57, 2400, 1},
        {38891, 55, 0, 0}}},
      {std::uint64_t{64} << 20,
       {{67870, 55, 132000, 0}, {34552, 28, 67200, 0}, {34552, 28, 67200, 0},
        {29616, 24, 57600, 0}, {16042, 13, 31200, 0}, {20978, 17, 40800, 0},
        {20978, 17, 40800, 0}, {14808, 12, 28800, 0}, {25914, 21, 50400, 0},
        {19744, 16, 38400, 0}}},
  };
  constexpr std::size_t kBatch = 64;
  for (const auto& [budget, want] : pinned) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      const SpannerDistanceOracle oracle(h, 1.0, 0.0,
                                         {.cache_budget_bytes = budget});
      for (std::size_t b = 0; b < queries.size(); b += kBatch) {
        apps::BatchStats stats;
        const auto answers = oracle.batch_query(
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

TEST(OracleRelabel, CsrStaysInInputOrderAndCopiesShareTheSearchGraph) {
  const Graph h = build_result(graph::make_workload("geometric", 400, 3))
                      .spanner;
  const SpannerDistanceOracle oracle(h, 1.0, 0.0);
  const auto input_order = graph::Csr::from_graph(h);
  EXPECT_TRUE(std::ranges::equal(oracle.csr().offsets(),
                                 input_order.offsets()));
  EXPECT_TRUE(std::ranges::equal(oracle.csr().entries(),
                                 input_order.entries()));
  const auto bfs_order = input_order.relabel_bfs_order().csr;
  EXPECT_TRUE(std::ranges::equal(oracle.search_csr().offsets(),
                                 bfs_order.offsets()));
  EXPECT_TRUE(std::ranges::equal(oracle.search_csr().entries(),
                                 bfs_order.entries()));
  EXPECT_FALSE(std::ranges::equal(oracle.search_csr().entries(),
                                  input_order.entries()));

  const SpannerDistanceOracle copy = oracle;
  EXPECT_TRUE(copy.csr().shares_storage_with(oracle.csr()));
  EXPECT_TRUE(copy.search_csr().shares_storage_with(oracle.search_csr()));
  std::stringstream text;
  oracle.save(text);
  std::stringstream direct;
  SpannerDistanceOracle(graph::Graph(h), 1.0, 0.0).save(direct);
  EXPECT_EQ(text.str(), direct.str());  // save() writes input order
}

TEST(OracleBatch, SecondBatchServedFromCache) {
  const Graph g = graph::make_workload("er", 200, 5);
  const SpannerDistanceOracle oracle(build_result(g));
  const auto queries =
      apps::make_query_workload(g.num_vertices(), {"uniform", 200, 7, 0.0});
  apps::BatchStats first, second;
  const auto a1 = oracle.batch_query(queries, 2, &first);
  const auto a2 = oracle.batch_query(queries, 4, &second);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_GT(first.bfs_passes, 0u);
  // Batch two picks cached endpoints as sources, so every request is a hit
  // (the distinct-source *set* may legitimately differ from batch one).
  EXPECT_EQ(second.bfs_passes, 0u);
  EXPECT_EQ(second.cache_hits, second.distinct_sources);
  EXPECT_EQ(oracle.bfs_passes(), first.bfs_passes);
}

TEST(OracleBatch, MatchesSingleQueriesAndHandlesEdgeCases) {
  const Graph g = graph::make_workload("grid", 144, 1);
  const SpannerDistanceOracle oracle(build_result(g));
  const std::vector<Query> queries{{0, 17}, {17, 0}, {5, 5}, {3, 140}};
  const auto answers = oracle.batch_query(queries, 2);
  ASSERT_EQ(answers.size(), queries.size());
  EXPECT_EQ(answers[0], answers[1]);  // symmetric
  EXPECT_EQ(answers[2], 0u);          // u == v
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(oracle.query(queries[i].u, queries[i].v), answers[i]);
  }
  EXPECT_THROW((void)oracle.batch_query(std::vector<Query>{{0, 9999}}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)oracle.query(9999, 0), std::invalid_argument);
}

TEST(OracleBatch, DisconnectedPairsReportInf) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {2, 3}, {4, 5}});
  const auto params = Params::practical(6, 0.5, 3, 0.4);
  const SpannerDistanceOracle oracle(g, params);
  const auto answers = oracle.batch_query(std::vector<Query>{{0, 2}, {0, 1}}, 2);
  EXPECT_EQ(answers[0], graph::kInfDist);
  EXPECT_EQ(answers[1], 1u);
  // Cache off: source 0 gets a run stopped at {2, 1}, which exhausts its
  // component, source 2 one for 4 in another component, and source 4 one
  // for 5 within its component.
  const SpannerDistanceOracle uncached(g, params, {.cache_budget_bytes = 0});
  const std::vector<Query> pairs{{0, 2}, {0, 1}, {2, 4}, {5, 4}};
  EXPECT_EQ(uncached.batch_query(pairs, 2),
            (std::vector<std::uint32_t>{graph::kInfDist, 1, graph::kInfDist,
                                        1}));
}

TEST(OracleCache, DeterministicLruEvictionWithinBudget) {
  const Graph g = graph::make_workload("er", 100, 9);
  const auto n = g.num_vertices();
  const std::uint64_t row = std::uint64_t{n} * sizeof(std::uint32_t);
  // Budget for exactly two cached sources.
  const SpannerDistanceOracle oracle(build_result(g),
                                     {.cache_budget_bytes = 2 * row});
  ASSERT_EQ(oracle.cache_capacity(), 2u);
  std::uint64_t row_bytes = 0;
  const auto serve = [&](Vertex u, Vertex v) {
    apps::BatchStats stats;
    (void)oracle.batch_query(std::vector<Query>{{u, v}}, 1, &stats);
    row_bytes += stats.row_bytes;
    return stats;
  };

  EXPECT_EQ(serve(5, 50).row_bytes, row);   // a free slot: row for 5
  EXPECT_EQ(serve(10, 50).row_bytes, row);  // a free slot: row for 10
  // The first miss on 20 is refused a row: a targeted search, no eviction.
  const auto first = serve(20, 50);
  EXPECT_EQ(first.bfs_passes, 1u);
  EXPECT_EQ(first.row_bytes, 0u);
  EXPECT_GT(first.edges_inspected, 0u);
  EXPECT_EQ(oracle.evictions(), 0u);
  EXPECT_EQ(oracle.cached_sources(), 2u);
  // The second miss on 20, still in the ring, is admitted and evicts 5
  // (the oldest).
  const auto second = serve(20, 60);
  EXPECT_EQ(second.row_bytes, row);
  EXPECT_EQ(second.evictions, 1u);
  EXPECT_EQ(oracle.cached_sources(), 2u);
  EXPECT_EQ(oracle.bfs_passes(), 4u);
  EXPECT_EQ(serve(10, 60).cache_hits, 1u);  // still cached -> no BFS
  EXPECT_EQ(oracle.bfs_passes(), 4u);
  EXPECT_EQ(serve(5, 60).row_bytes, 0u);  // evicted -> refused, searched
  EXPECT_EQ(oracle.bfs_passes(), 5u);

  // Ties: one batch uses 10 and 20, so both carry its clock; 5 comes back
  // from the ring and evicts the smaller of the two.
  (void)oracle.batch_query(std::vector<Query>{{10, 70}, {20, 70}}, 1);
  const auto tie = serve(5, 80);
  EXPECT_EQ(tie.row_bytes, row);
  EXPECT_EQ(tie.evictions, 1u);
  EXPECT_EQ(serve(20, 90).cache_hits, 1u);  // 20 stayed
  EXPECT_EQ(serve(10, 90).cache_hits, 0u);  // 10 went
  EXPECT_EQ(oracle.evictions(), 2u);
  EXPECT_EQ(row_bytes, 4 * row);  // rows for 5, 10, 20 and 5 again

  // Within one batch the free slots count the rows admitted before: three
  // new sources into an empty two-row cache build two rows, evicting none.
  const SpannerDistanceOracle fresh(build_result(g),
                                    {.cache_budget_bytes = 2 * row});
  apps::BatchStats stats;
  (void)fresh.batch_query(std::vector<Query>{{30, 90}, {31, 90}, {32, 90}}, 1,
                          &stats);
  EXPECT_EQ(stats.bfs_passes, 3u);
  EXPECT_EQ(stats.row_bytes, 2 * row);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(fresh.cached_sources(), 2u);
}

TEST(OracleCache, ZeroBudgetDisablesCachingButNotAnswers) {
  const Graph g = graph::make_workload("er", 150, 4);
  auto result = build_result(g);
  const SpannerDistanceOracle unbounded(result.spanner, 2.0, 10.0);
  const SpannerDistanceOracle uncached(result.spanner, 2.0, 10.0,
                                       {.cache_budget_bytes = 0});
  EXPECT_EQ(uncached.cache_capacity(), 0u);
  const auto queries =
      apps::make_query_workload(g.num_vertices(), {"uniform", 100, 3, 0.0});
  EXPECT_EQ(uncached.batch_query(queries, 2), unbounded.batch_query(queries, 2));
  EXPECT_EQ(uncached.cached_sources(), 0u);
}

// --- snapshot ----------------------------------------------------------------

TEST(OracleSnapshot, RoundTripPreservesAnswersParamsAndGuarantee) {
  const Graph g = graph::make_workload("ba", 250, 7);
  const SpannerDistanceOracle original(build_result(g));
  ASSERT_TRUE(original.params().has_value());

  std::stringstream snapshot;
  original.save(snapshot);
  const auto loaded = SpannerDistanceOracle::load(snapshot);

  EXPECT_EQ(loaded.spanner_edges(), original.spanner_edges());
  EXPECT_EQ(loaded.spanner().num_vertices(), original.spanner().num_vertices());
  EXPECT_EQ(loaded.multiplicative(), original.multiplicative());
  EXPECT_EQ(loaded.additive(), original.additive());
  ASSERT_TRUE(loaded.params().has_value());
  EXPECT_EQ(loaded.params()->kappa(), original.params()->kappa());
  EXPECT_EQ(loaded.params()->ell(), original.params()->ell());

  const auto queries = apps::make_query_workload(
      g.num_vertices(), {"zipf", 400, 13, 1.1});
  EXPECT_EQ(loaded.batch_query(queries, 2), original.batch_query(queries, 2));
}

TEST(OracleSnapshot, FileRoundTripAndPaperMode) {
  const Graph g = graph::make_workload("er", 120, 2);
  const auto params = Params::paper(g.num_vertices(), 0.5, 3, 0.4);
  const SpannerDistanceOracle original(g, params);
  const std::string path = ::testing::TempDir() + "oracle_roundtrip.naso";
  original.save_file(path);
  const auto loaded = SpannerDistanceOracle::load_file(path);
  EXPECT_EQ(loaded.multiplicative(), original.multiplicative());
  EXPECT_EQ(loaded.additive(), original.additive());
  ASSERT_TRUE(loaded.params().has_value());
  EXPECT_TRUE(loaded.params()->is_paper_mode());
  const auto queries =
      apps::make_query_workload(g.num_vertices(), {"uniform", 150, 1, 0.0});
  EXPECT_EQ(loaded.batch_query(queries, 8), original.batch_query(queries, 1));
}

TEST(OracleSnapshot, BaselineWithoutParamsRoundTrips) {
  const Graph g = graph::make_workload("grid", 100, 1);
  const SpannerDistanceOracle original(g, 3.0, 2.0);  // externally proven
  std::stringstream snapshot;
  original.save(snapshot);
  EXPECT_NE(snapshot.str().find("params none"), std::string::npos);
  const auto loaded = SpannerDistanceOracle::load(snapshot);
  EXPECT_FALSE(loaded.params().has_value());
  EXPECT_EQ(loaded.multiplicative(), 3.0);
  EXPECT_EQ(loaded.additive(), 2.0);
  EXPECT_EQ(loaded.spanner_edges(), g.num_edges());
}

// The malformed-snapshot corpus, mirroring read_edge_list's line-numbered
// errors: every rejection names the offending line of the enclosing file.
void expect_load_error(const std::string& text, const std::string& expected) {
  std::istringstream in(text);
  try {
    (void)SpannerDistanceOracle::load(in);
    FAIL() << "expected rejection of: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(OracleSnapshot, MalformedCorpusRejectedWithLineNumbers) {
  // Truncations at every stage.
  expect_load_error("", "truncated snapshot");
  expect_load_error("", "line 1");
  expect_load_error("NAS-ORACLE v1\n", "line 2");
  expect_load_error("NAS-ORACLE v1\nparams none\n", "line 3");
  // Bad magic (wrong tool, wrong version).
  expect_load_error("NAS-ORACLE v9\nparams none\n", "bad magic");
  expect_load_error("5 4\n0 1\n", "bad magic");
  // Malformed params / guarantee lines.
  expect_load_error("NAS-ORACLE v1\nschedule none\n", "params line");
  expect_load_error("NAS-ORACLE v1\nparams sideways 1 2 3 4\n",
                    "unknown params mode");
  // A NUL in a quoted header token is escaped, so what() keeps its line.
  using namespace std::string_literals;
  expect_load_error("NAS\0ORACLE v1\nparams none\n"s, "line 1");
  expect_load_error("NAS-ORACLE v1\nparams si\0de 1 2 3 4\n"s, "line 2");
  expect_load_error("NAS-ORACLE v1\nparams practical 0.5 3\n",
                    "malformed params line");
  expect_load_error("NAS-ORACLE v1\nparams none extra\n", "trailing token");
  expect_load_error("NAS-ORACLE v1\nparams none\nguarantee 1.5\n",
                    "malformed guarantee line");
  expect_load_error("NAS-ORACLE v1\nparams none\nguarantee 1.5 2 junk\n",
                    "trailing token in guarantee line");
  // Edge-list body errors carry absolute line numbers (header offset 3).
  expect_load_error("NAS-ORACLE v1\nparams none\nguarantee 1 0\nnope\n",
                    "line 4");
  expect_load_error(
      "NAS-ORACLE v1\nparams none\nguarantee 1 0\n4 3\n0 1\n1 2\n",
      "declares m=3");
  expect_load_error(
      "NAS-ORACLE v1\nparams none\nguarantee 1 0\n4 1\n0 1\n1 2\n",
      "line 6");
  expect_load_error(
      "NAS-ORACLE v1\nparams none\nguarantee 1 0\n4 2\n0 1 7\n1 2\n",
      "trailing token");
  // Semantically out-of-range params keep the line-numbered contract.
  expect_load_error(
      "NAS-ORACLE v1\nparams practical 0.5 1 0.4 0\nguarantee 1 0\n"
      "4 2\n0 1\n1 2\n",
      "invalid params at line 2");
  // Recorded guarantee disagreeing with the recomputed schedule.
  expect_load_error(
      "NAS-ORACLE v1\nparams practical 0.5 3 0.4 0\nguarantee 1 0\n"
      "4 2\n0 1\n1 2\n",
      "disagrees with the recorded pair");
}

// --- workload generator ------------------------------------------------------

TEST(QueryWorkload, DeterministicAndInRange) {
  const apps::WorkloadSpec spec{"uniform", 500, 42, 0.0};
  const auto a = apps::make_query_workload(1000, spec);
  const auto b = apps::make_query_workload(1000, spec);
  ASSERT_EQ(a.size(), 500u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].v, b[i].v);
    EXPECT_LT(a[i].u, 1000u);
    EXPECT_LT(a[i].v, 1000u);
  }
}

TEST(QueryWorkload, ZipfSkewsSourcesUniformDoesNot) {
  const Vertex n = 1000;
  const std::uint64_t q = 5000;
  const auto count_max = [&](const std::string& dist, double theta) {
    std::vector<std::uint64_t> freq(n, 0);
    for (const auto& query :
         apps::make_query_workload(n, {dist, q, 3, theta})) {
      EXPECT_LT(query.u, n);
      ++freq[query.u];
    }
    return *std::max_element(freq.begin(), freq.end());
  };
  const std::uint64_t zipf_max = count_max("zipf", 1.1);
  const std::uint64_t uniform_max = count_max("uniform", 0.0);
  // Zipf: the hottest source dominates; uniform: close to q/n.
  EXPECT_GT(zipf_max, 20 * q / n);
  EXPECT_LT(uniform_max, 5 * q / n);
}

TEST(QueryWorkload, RejectsBadSpecs) {
  EXPECT_THROW((void)apps::make_query_workload(0, {"uniform", 1, 1, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)apps::make_query_workload(10, {"pareto", 1, 1, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)apps::make_query_workload(10, {"zipf", 1, 1, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)apps::make_query_workload(10, {"zipf", 1, 1, -1.0}),
               std::invalid_argument);
}

}  // namespace
