// Cross-module integration tests: head-to-head algorithm comparisons and
// composed pipelines.
#include <gtest/gtest.h>

#include "baselines/baswana_sen.hpp"
#include "baselines/elkin_peleg.hpp"
#include "baselines/en17.hpp"
#include "core/elkin_matar.hpp"
#include "graph/apsp.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "verify/stretch.hpp"

namespace {

using namespace nas;
using core::Params;
using graph::Graph;
using graph::Vertex;

TEST(Integration, AllAlgorithmsPreserveConnectivity) {
  const Graph g = graph::make_workload("caveman", 250, 1);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const auto em = core::build_spanner(g, params);
  const auto en = baselines::build_en17_spanner(g, params, 3);
  const auto bs = baselines::build_baswana_sen_spanner(g, 3, 3);
  const auto ep = baselines::build_elkin_peleg_spanner(g, params);
  for (const Graph* h : {&em.spanner, &en.spanner, &bs.spanner, &ep.spanner}) {
    const auto rep = verify::verify_stretch_exact(g, *h, 1e9, 1e9);
    EXPECT_TRUE(rep.connectivity_ok);
  }
}

TEST(Integration, NearAdditiveBeatsMultiplicativeOnLongDistances) {
  // The paper's motivation: on large distances, (1+eps, beta) spanners track
  // d_G much more closely than a (2kappa-1) multiplicative spanner can be
  // *guaranteed* to.  Compare measured worst-case additive error growth on a
  // torus (large diameter).
  const Graph g = graph::make_workload("torus", 400, 2);
  const auto params = Params::practical(g.num_vertices(), 0.25, 3, 0.4);
  const auto em = core::build_spanner(g, params);
  const auto rep = verify::verify_stretch_exact(g, em.spanner, 1.0, 1e18);
  // Measured additive error of the near-additive spanner.
  const double em_additive = static_cast<double>(rep.max_additive);
  // The multiplicative guarantee allows error (2k-2)*d, which at the torus
  // diameter is far beyond em's measured additive error.
  const double diam = graph::Apsp(g).max_finite_distance();
  EXPECT_LT(em_additive, (2 * 3 - 2) * diam);
}

TEST(Integration, SpannerOfSpannerStillWorks) {
  // Idempotence-ish: running the construction on its own output yields a
  // subgraph with composed stretch.
  const Graph g = graph::make_workload("er_dense", 200, 3);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const auto first = core::build_spanner(g, params);
  const auto second = core::build_spanner(first.spanner, params);
  EXPECT_LE(second.spanner.num_edges(), first.spanner.num_edges());
  const double m = params.stretch_multiplicative();
  const double a = params.stretch_additive();
  const auto rep =
      verify::verify_stretch_exact(g, second.spanner, m * m, m * a + a);
  EXPECT_TRUE(rep.bound_ok);
}

TEST(Integration, RoundCountsOrderedAsTheoryPredicts) {
  // The deterministic algorithm pays the ruling-set overhead; EN17 does not.
  // Baswana-Sen is O(kappa^2) rounds, far below both.
  const Graph g = graph::make_workload("er", 400, 4);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const auto em = core::build_spanner(g, params);
  const auto bs = baselines::build_baswana_sen_spanner(g, 3, 5);
  EXPECT_LT(bs.ledger.rounds(), em.ledger.rounds());
  EXPECT_GT(em.ledger.rounds(), 0u);
}

TEST(Integration, ApproxShortestPathsViaSpanner) {
  // The classic application: answer distance queries from the sparse
  // spanner; every answer obeys the proven bound.
  const Graph g = graph::make_workload("er", 300, 5);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const auto result = core::build_spanner(g, params);
  const graph::Apsp exact(g);
  const graph::Apsp approx(result.spanner);
  for (Vertex u = 0; u < g.num_vertices(); u += 13) {
    for (Vertex v = u + 1; v < g.num_vertices(); v += 13) {
      if (exact.dist(u, v) == graph::kInfDist) continue;
      EXPECT_GE(approx.dist(u, v), exact.dist(u, v));
      EXPECT_LE(approx.dist(u, v),
                params.stretch_multiplicative() * exact.dist(u, v) +
                    params.stretch_additive());
    }
  }
}

TEST(Integration, TraceEdgesMatchSpannerSize) {
  const Graph g = graph::make_workload("er", 300, 7);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const auto result = core::build_spanner(g, params);
  EXPECT_EQ(result.trace.total_edges(), result.spanner.num_edges());
}

TEST(Integration, DenserInputSameOrderSpanner) {
  // Spanner size is governed by n (and beta), not m: doubling density must
  // not double the spanner.
  const Graph sparse = graph::make_workload("er", 400, 8);
  const Graph dense = graph::make_workload("er_dense", 400, 8);
  const auto params_s =
      Params::practical(sparse.num_vertices(), 0.5, 3, 0.4);
  const auto params_d = Params::practical(dense.num_vertices(), 0.5, 3, 0.4);
  const auto hs = core::build_spanner(sparse, params_s);
  const auto hd = core::build_spanner(dense, params_d);
  const double ratio_input = static_cast<double>(dense.num_edges()) /
                             static_cast<double>(sparse.num_edges());
  const double ratio_spanner = static_cast<double>(hd.spanner.num_edges()) /
                               static_cast<double>(hs.spanner.num_edges());
  EXPECT_LT(ratio_spanner, ratio_input);
}

}  // namespace
