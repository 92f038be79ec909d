// Tests for the application layer (the distance oracle) and the ACIM99
// purely-additive +2 baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/distance_oracle.hpp"
#include "baselines/additive2.hpp"
#include "core/elkin_matar.hpp"
#include "graph/apsp.hpp"
#include "graph/generators.hpp"
#include "verify/checks.hpp"
#include "verify/stretch.hpp"

namespace {

using namespace nas;
using core::Params;
using graph::Graph;
using graph::Vertex;

TEST(DistanceOracle, AnswersWithinGuarantee) {
  const Graph g = graph::make_workload("er", 300, 3);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const apps::SpannerDistanceOracle oracle(g, params);
  const graph::Apsp exact(g);
  for (Vertex u = 0; u < g.num_vertices(); u += 11) {
    for (Vertex v = 0; v < g.num_vertices(); v += 7) {
      const auto d = exact.dist(u, v);
      if (d == graph::kInfDist) continue;
      const auto q = oracle.query(u, v);
      EXPECT_GE(q, d);
      EXPECT_LE(q, oracle.multiplicative() * d + oracle.additive());
    }
  }
}

TEST(DistanceOracle, SelfDistanceZeroAndValidation) {
  const Graph g = graph::path(10);
  const auto params = Params::practical(10, 0.5, 3, 0.4);
  const apps::SpannerDistanceOracle oracle(g, params);
  EXPECT_EQ(oracle.query(4, 4), 0u);
  EXPECT_THROW((void)oracle.query(0, 99), std::invalid_argument);
}

TEST(DistanceOracle, CachesBfsPasses) {
  const Graph g = graph::make_workload("er", 200, 5);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const apps::SpannerDistanceOracle oracle(g, params);
  EXPECT_EQ(oracle.bfs_passes(), 0u);
  (void)oracle.query(0, 1);
  (void)oracle.query(0, 2);
  (void)oracle.query(3, 0);  // reuses 0's cached BFS (swapped side)
  EXPECT_EQ(oracle.bfs_passes(), 1u);
  (void)oracle.query(5, 6);
  EXPECT_EQ(oracle.bfs_passes(), 2u);
}

TEST(DistanceOracle, DisconnectedPairsReportInf) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {2, 3}, {4, 5}});
  const auto params = Params::practical(6, 0.5, 3, 0.4);
  const apps::SpannerDistanceOracle oracle(g, params);
  EXPECT_EQ(oracle.query(0, 2), graph::kInfDist);
  EXPECT_EQ(oracle.query(0, 1), 1u);
}

// --- ACIM99 +2 additive spanner ---------------------------------------------

class Additive2Families : public ::testing::TestWithParam<const char*> {};

TEST_P(Additive2Families, PurelyAdditivePlusTwo) {
  const Graph g = graph::make_workload(GetParam(), 220, 13);
  const auto res = baselines::build_additive2_spanner(g);
  EXPECT_TRUE(verify::is_subgraph(g, res.spanner));
  const auto rep = verify::verify_stretch_exact(g, res.spanner, 1.0, 2.0);
  EXPECT_TRUE(rep.bound_ok) << GetParam() << " worst +" << rep.max_excess;
  EXPECT_TRUE(rep.connectivity_ok);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Additive2Families,
                         ::testing::Values("er", "er_dense", "ba", "caveman",
                                           "hypercube", "dumbbell"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

TEST(Additive2, SparseGraphsKeptVerbatim) {
  // All degrees below sqrt(n): every edge is light, spanner == G, error 0.
  const Graph g = graph::cycle(100);
  const auto res = baselines::build_additive2_spanner(g);
  EXPECT_EQ(res.spanner.num_edges(), g.num_edges());
}

TEST(Additive2, DenseGraphCompressedNearN32) {
  const Graph g = graph::complete(144);
  const auto res = baselines::build_additive2_spanner(g);
  // K_n: one dominator covers everything; light edges absent.
  EXPECT_LT(res.spanner.num_edges(), g.num_edges() / 4);
  const auto rep = verify::verify_stretch_exact(g, res.spanner, 1.0, 2.0);
  EXPECT_TRUE(rep.bound_ok);
}

TEST(Additive2, CustomThresholdRespected) {
  const Graph g = graph::make_workload("er_dense", 200, 15);
  // Threshold larger than max degree: everything light, spanner == G.
  const auto res = baselines::build_additive2_spanner(
      g, static_cast<std::uint32_t>(g.max_degree() + 1));
  EXPECT_EQ(res.spanner.num_edges(), g.num_edges());
}

TEST(Additive2, IllustratesAbboudBodwinTradeoff) {
  // The motivation the paper cites [AB15]: purely-additive needs ~n^{3/2}
  // edges where near-additive reaches n^{1+1/kappa}.  On a dense graph the
  // near-additive spanner (kappa = 3) is smaller than the +2 spanner.
  const Graph g = graph::make_workload("er_dense", 600, 17);
  const auto plus2 = baselines::build_additive2_spanner(g);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const auto near = core::build_spanner(g, params, {.validate = false});
  EXPECT_LT(near.spanner.num_edges(), plus2.spanner.num_edges());
}

}  // namespace
