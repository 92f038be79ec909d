// End-to-end tests for the full Elkin-Matar construction: the paper's
// guarantees (stretch, size, partition, invariants) across graph families
// and parameter settings.
#include <gtest/gtest.h>

#include <string>

#include "core/elkin_matar.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "verify/checks.hpp"
#include "verify/stretch.hpp"

namespace {

using namespace nas;
using core::Params;
using graph::Graph;
using graph::Vertex;

struct EmCase {
  std::string family;
  Vertex n;
  double eps;
  int kappa;
  double rho;
  std::uint64_t seed;
};

class ElkinMatarEndToEnd : public ::testing::TestWithParam<EmCase> {
 protected:
  static Graph make(const EmCase& tc) {
    return graph::make_workload(tc.family, tc.n, tc.seed);
  }
};

TEST_P(ElkinMatarEndToEnd, StretchBoundHolds) {
  const auto& tc = GetParam();
  const Graph g = make(tc);
  const auto params = Params::practical(g.num_vertices(), tc.eps, tc.kappa, tc.rho);
  const auto result = core::build_spanner(g, params);
  const auto rep = verify::verify_stretch_exact(
      g, result.spanner, params.stretch_multiplicative(),
      params.stretch_additive());
  EXPECT_TRUE(rep.connectivity_ok);
  EXPECT_TRUE(rep.bound_ok)
      << "worst pair (" << rep.worst_u << "," << rep.worst_v
      << "): dG=" << rep.worst_dg << " dH=" << rep.worst_dh;
}

TEST_P(ElkinMatarEndToEnd, SpannerIsSubgraph) {
  const auto& tc = GetParam();
  const Graph g = make(tc);
  const auto params = Params::practical(g.num_vertices(), tc.eps, tc.kappa, tc.rho);
  const auto result = core::build_spanner(g, params);
  EXPECT_TRUE(verify::is_subgraph(g, result.spanner));
}

TEST_P(ElkinMatarEndToEnd, StructuralInvariantsHold) {
  const auto& tc = GetParam();
  const Graph g = make(tc);
  const auto params = Params::practical(g.num_vertices(), tc.eps, tc.kappa, tc.rho);
  // build_spanner throws on any Lemma 2.3/2.4 or Theorem 2.2 violation when
  // validation is on; reaching this point is the assertion.
  const auto result = core::build_spanner(g, params, {.validate = true});
  EXPECT_TRUE(result.trace.all_invariants_ok());

  // Corollary 2.5: settle phases partition V.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(result.clusters.settled_phase(v), 0);
    EXPECT_LE(result.clusters.settled_phase(v), params.ell());
  }
}

TEST_P(ElkinMatarEndToEnd, ClusterCountsShrinkPerLemmas210And211) {
  const auto& tc = GetParam();
  const Graph g = make(tc);
  const double n = g.num_vertices();
  const auto params = Params::practical(g.num_vertices(), tc.eps, tc.kappa, tc.rho);
  const auto result = core::build_spanner(g, params);
  for (const auto& ph : result.trace.phases) {
    if (ph.index == 0) {
      EXPECT_EQ(ph.num_clusters, g.num_vertices());
      continue;
    }
    // |P_{i+1}| = |RS_i| <= |P_i| / deg_i: each ruler's δ-neighborhood holds
    // >= deg_i distinct centers and the neighborhoods are disjoint.
    const auto& prev = result.trace.phases[ph.index - 1];
    if (prev.num_rulers > 0) {
      EXPECT_LE(ph.num_clusters * prev.deg, prev.num_clusters)
          << "phase " << ph.index;
    }
    (void)n;
  }
}

TEST_P(ElkinMatarEndToEnd, DeterministicAcrossRuns) {
  const auto& tc = GetParam();
  const Graph g = make(tc);
  const auto params = Params::practical(g.num_vertices(), tc.eps, tc.kappa, tc.rho);
  const auto a = core::build_spanner(g, params);
  const auto b = core::build_spanner(g, params);
  EXPECT_EQ(a.spanner.edges(), b.spanner.edges());
  EXPECT_EQ(a.ledger.rounds(), b.ledger.rounds());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElkinMatarEndToEnd,
    ::testing::Values(
        EmCase{"er", 150, 0.5, 3, 0.4, 1},
        EmCase{"er", 300, 0.25, 3, 0.4, 2},
        EmCase{"er_dense", 200, 0.5, 4, 0.45, 3},
        EmCase{"grid", 225, 0.5, 3, 0.4, 4},
        EmCase{"torus", 196, 0.25, 3, 0.34, 5},
        EmCase{"hypercube", 256, 0.5, 4, 0.3, 6},
        EmCase{"cycle", 120, 0.5, 3, 0.4, 7},
        EmCase{"path", 100, 0.5, 3, 0.4, 8},
        EmCase{"tree", 127, 0.25, 3, 0.4, 9},
        EmCase{"ba", 250, 0.5, 3, 0.4, 10},
        EmCase{"caveman", 216, 0.5, 3, 0.4, 11},
        EmCase{"dumbbell", 150, 0.5, 3, 0.4, 12},
        EmCase{"geometric", 200, 0.5, 4, 0.45, 13},
        EmCase{"star", 150, 0.5, 3, 0.4, 14},
        EmCase{"er", 200, 0.5, 4, 0.3, 15},
        EmCase{"er", 200, 0.4, 8, 0.4, 16}),
    [](const auto& param_info) {
      const auto& c = param_info.param;
      std::string eps = std::to_string(c.eps);
      eps.erase(eps.find_last_not_of('0') + 1);
      for (auto& ch : eps) {
        if (ch == '.') ch = 'p';
      }
      return c.family + "_n" + std::to_string(c.n) + "_e" + eps + "_k" +
             std::to_string(c.kappa);
    });

TEST(ElkinMatar, RejectsMismatchedParams) {
  const Graph g = graph::path(10);
  const auto params = Params::practical(50, 0.5, 3, 0.4);
  EXPECT_THROW(core::build_spanner(g, params), std::invalid_argument);
}

TEST(ElkinMatar, DisconnectedGraphSpansEachComponent) {
  const Graph g = graph::Graph::from_edges(
      10, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}, {7, 8}, {8, 9}});
  const auto params = Params::practical(10, 0.5, 3, 0.4);
  const auto result = core::build_spanner(g, params);
  const auto rep = verify::verify_stretch_exact(
      g, result.spanner, params.stretch_multiplicative(),
      params.stretch_additive());
  EXPECT_TRUE(rep.bound_ok);
  EXPECT_TRUE(rep.connectivity_ok);
}

TEST(ElkinMatar, TinyGraphs) {
  for (Vertex n : {2u, 3u, 5u}) {
    const Graph g = graph::path(n);
    const auto params = Params::practical(n, 0.5, 3, 0.4);
    const auto result = core::build_spanner(g, params);
    EXPECT_EQ(result.spanner.num_edges(), g.num_edges());  // paths can't shrink
  }
}

TEST(ElkinMatar, CompleteGraphCompressesHard) {
  const Graph g = graph::complete(64);
  const auto params = Params::practical(64, 0.5, 3, 0.4);
  const auto result = core::build_spanner(g, params);
  // K64 has 2016 edges; the spanner should be drastically smaller.
  EXPECT_LT(result.spanner.num_edges(), g.num_edges() / 2);
  const auto rep = verify::verify_stretch_exact(
      g, result.spanner, params.stretch_multiplicative(),
      params.stretch_additive());
  EXPECT_TRUE(rep.bound_ok);
}

TEST(ElkinMatar, PaperModeRunsOnSmallInstance) {
  // Paper mode's internal ε is tiny, so δ_i explodes; at κρ close to 2 and
  // small n the schedule stays executable and the (vacuous at this scale)
  // eq.(18) bound holds.
  const Graph g = graph::make_workload("er", 120, 21);
  const auto params = Params::paper(g.num_vertices(), 1.0, 4, 0.49);
  const auto result = core::build_spanner(g, params);
  const auto rep = verify::verify_stretch_exact(
      g, result.spanner, 1.0 + params.eps_user(), params.beta_paper());
  EXPECT_TRUE(rep.bound_ok);
  EXPECT_TRUE(verify::is_subgraph(g, result.spanner));
}

TEST(ElkinMatar, RoundsMatchLedgerSections) {
  const Graph g = graph::make_workload("er", 200, 23);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const auto result = core::build_spanner(g, params);
  std::uint64_t section_sum = 0;
  for (const auto& s : result.ledger.sections()) section_sum += s.rounds;
  EXPECT_EQ(section_sum, result.ledger.rounds());
  // The trace's per-phase rounds account for everything except the
  // concluding phase's cluster-count aggregation.
  EXPECT_LE(result.trace.total_rounds(), result.ledger.rounds());
}

TEST(ElkinMatar, EdgeCountWithinPaperBound) {
  // |H| = O(β n^{1+1/κ}); with the unit-constant bound of Params this holds
  // comfortably on every tested family.
  for (const char* family : {"er", "grid", "ba", "er_dense"}) {
    const Graph g = graph::make_workload(family, 250, 31);
    const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
    const auto result = core::build_spanner(g, params);
    const auto rep = verify::size_report(g, result.spanner,
                                         params.beta_paper(), params.kappa());
    EXPECT_TRUE(rep.within_bound) << family << ": " << rep.spanner_edges
                                  << " vs bound " << rep.bound;
  }
}

TEST(ElkinMatar, ValidateOffSkipsChecksButSameSpanner) {
  const Graph g = graph::make_workload("er", 200, 33);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const auto with = core::build_spanner(g, params, {.validate = true});
  const auto without = core::build_spanner(g, params, {.validate = false});
  EXPECT_EQ(with.spanner.edges(), without.spanner.edges());
}

TEST(ElkinMatar, CrossCheckedBuildPassesAndEqualsPlainBuild) {
  // Every phase's event-driven Algorithm 1 must match its congest::Engine
  // re-execution bit-for-bit (a mismatch throws), and the reference is
  // verification work: the spanner and the ledger are those of a plain build.
  const Graph g = graph::make_workload("er", 150, 21);
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  const auto plain = core::build_spanner(g, params);
  const auto checked =
      core::build_spanner(g, params, {.cross_check_alg1 = true});
  EXPECT_EQ(checked.spanner.edges(), plain.spanner.edges());
  EXPECT_EQ(checked.ledger.rounds(), plain.ledger.rounds());
  EXPECT_EQ(checked.ledger.messages(), plain.ledger.messages());
}

}  // namespace
