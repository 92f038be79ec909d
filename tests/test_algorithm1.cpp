// Tests for Algorithm 1 (core/popular.hpp) against the Theorem 2.1 /
// Lemma A.1 contract, and cross-validation of the event-driven execution
// against the exact per-round CONGEST engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/popular.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "metrics/metrics.hpp"

namespace {

using namespace nas;
using core::Algorithm1Result;
using graph::Graph;
using graph::kInfDist;
using graph::Vertex;

/// Oracle: centers within distance delta of u (excluding u), with distances.
std::vector<std::pair<Vertex, std::uint32_t>> centers_within(
    const Graph& g, const std::vector<Vertex>& sources, Vertex u,
    std::uint32_t delta) {
  std::vector<std::uint8_t> is_source(g.num_vertices(), 0);
  for (Vertex s : sources) is_source[s] = 1;
  const auto res = graph::bfs(g, u);
  std::vector<std::pair<Vertex, std::uint32_t>> out;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v != u && is_source[v] && res.dist[v] != kInfDist && res.dist[v] <= delta) {
      out.emplace_back(v, res.dist[v]);
    }
  }
  return out;
}

TEST(Algorithm1, ValidatesInputs) {
  const Graph g = graph::path(4);
  EXPECT_THROW(core::run_algorithm1(g, {0}, 0, 1), std::invalid_argument);
  EXPECT_THROW(core::run_algorithm1(g, {0}, 1, 0), std::invalid_argument);
  EXPECT_THROW(core::run_algorithm1(g, {9}, 1, 1), std::invalid_argument);
  EXPECT_THROW(core::run_algorithm1(g, {0, 0}, 1, 1), std::invalid_argument);
  EXPECT_THROW(core::run_algorithm1_exact(g, {0, 0}, 1, 1),
               std::invalid_argument);
}

TEST(Algorithm1, PathGraphKnowledge) {
  const Graph g = graph::path(6);
  // All vertices are centers, delta = 2, cap = 10 (no truncation).
  std::vector<Vertex> sources{0, 1, 2, 3, 4, 5};
  const auto res = core::run_algorithm1(g, sources, 2, 10);
  // Vertex 2 must know 0, 1, 3, 4 at distances 2, 1, 1, 2.
  ASSERT_EQ(res.knowledge[2].size(), 4u);
  const auto* k0 = core::find_knowledge(res.knowledge[2], 0);
  ASSERT_NE(k0, nullptr);
  EXPECT_EQ(k0->dist, 2u);
  EXPECT_EQ(k0->parent, 1u);
  const auto* k3 = core::find_knowledge(res.knowledge[2], 3);
  ASSERT_NE(k3, nullptr);
  EXPECT_EQ(k3->dist, 1u);
  EXPECT_EQ(k3->parent, 3u);
}

TEST(Algorithm1, PopularityThreshold) {
  const Graph g = graph::star(6);  // center 0 with 5 leaves
  std::vector<Vertex> sources{0, 1, 2, 3, 4, 5};
  // delta = 1, cap = 5: vertex 0 learns 5 others (popular); leaves learn 1.
  const auto res = core::run_algorithm1(g, sources, 1, 5);
  EXPECT_TRUE(res.popular[0]);
  for (Vertex leaf = 1; leaf <= 5; ++leaf) EXPECT_FALSE(res.popular[leaf]);
  // delta = 2: every leaf learns the 4 other leaves through the hub plus the
  // hub itself = 5 >= cap -> popular.
  const auto res2 = core::run_algorithm1(g, sources, 2, 5);
  for (Vertex v = 0; v < 6; ++v) EXPECT_TRUE(res2.popular[v]) << v;
}

TEST(Algorithm1, CapTruncatesDeterministicallyBySmallestOrigin) {
  const Graph g = graph::star(6);
  std::vector<Vertex> sources{1, 2, 3, 4, 5};  // leaves are centers, hub not
  const auto res = core::run_algorithm1(g, sources, 1, 3);
  // Hub hears 5 origins at layer 1 but keeps only the 3 smallest IDs.
  ASSERT_EQ(res.knowledge[0].size(), 3u);
  EXPECT_EQ(res.knowledge[0][0].origin, 1u);
  EXPECT_EQ(res.knowledge[0][1].origin, 2u);
  EXPECT_EQ(res.knowledge[0][2].origin, 3u);
}

TEST(Algorithm1, RoundsFormula) {
  const Graph g = graph::path(8);
  const auto res = core::run_algorithm1(g, {0, 7}, 3, 4);
  EXPECT_EQ(res.rounds_charged, 1 + 3u * 4u);
}

TEST(Algorithm1, EdgeLayerLoadRespectsCap) {
  const Graph g = graph::make_workload("er_dense", 150, 3);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); ++v) sources.push_back(v);
  const auto res = core::run_algorithm1(g, sources, 3, 7);
  EXPECT_LE(res.max_edge_layer_load, 7u);
}

struct Alg1Case {
  std::string family;
  graph::Vertex n;
  std::uint64_t delta;
  std::uint64_t cap;
  int center_stride;  // every k-th vertex is a center
};

class Algorithm1Contract : public ::testing::TestWithParam<Alg1Case> {};

TEST_P(Algorithm1Contract, MatchesTheorem21) {
  const auto& tc = GetParam();
  const Graph g = graph::make_workload(tc.family, tc.n, 29);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += tc.center_stride) {
    sources.push_back(v);
  }
  const auto res = core::run_algorithm1(g, sources, tc.delta, tc.cap);

  for (Vertex u : sources) {
    const auto oracle =
        centers_within(g, sources, u, static_cast<std::uint32_t>(tc.delta));
    // Lemma A.1: u knows at least min(cap, |Γ^δ(u) ∩ S|) centers.
    EXPECT_GE(res.knowledge[u].size(),
              std::min<std::size_t>(tc.cap, oracle.size()));
    // Popularity: >= cap other centers within delta.
    EXPECT_EQ(static_cast<bool>(res.popular[u]), oracle.size() >= tc.cap);
    // Theorem 2.1(2): an unpopular center knows ALL centers within delta,
    // at exact shortest distances.
    if (!res.popular[u]) {
      ASSERT_EQ(res.knowledge[u].size(), oracle.size());
      for (const auto& [origin, dist] : oracle) {
        const auto* k = core::find_knowledge(res.knowledge[u], origin);
        ASSERT_NE(k, nullptr) << "center " << u << " missing " << origin;
        EXPECT_EQ(k->dist, dist);
      }
    }
    // All recorded distances are exact shortest distances (even when capped).
    const auto bfs = graph::bfs(g, u);
    for (const auto& k : res.knowledge[u]) {
      EXPECT_EQ(k.dist, bfs.dist[k.origin]);
    }
  }
}

TEST_P(Algorithm1Contract, TraceBackChainsAreConsistent) {
  const auto& tc = GetParam();
  const Graph g = graph::make_workload(tc.family, tc.n, 31);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += tc.center_stride) {
    sources.push_back(v);
  }
  const auto res = core::run_algorithm1(g, sources, tc.delta, tc.cap);
  // Every knowledge entry's parent chain must walk to the origin with
  // strictly decreasing recorded distances (Theorem 2.1(2)).
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const auto& k : res.knowledge[v]) {
      Vertex x = v;
      const core::Knowledge* cur = &k;
      while (cur->dist > 1) {
        const Vertex p = cur->parent;
        ASSERT_TRUE(g.has_edge(x, p));
        const auto* next = core::find_knowledge(res.knowledge[p], k.origin);
        ASSERT_NE(next, nullptr);
        ASSERT_EQ(next->dist, cur->dist - 1);
        x = p;
        cur = next;
      }
      EXPECT_EQ(cur->parent, k.origin);
    }
  }
}

TEST_P(Algorithm1Contract, EventDrivenMatchesExactEngine) {
  const auto& tc = GetParam();
  if (tc.n > 80) GTEST_SKIP() << "engine cross-check is for small inputs";
  const Graph g = graph::make_workload(tc.family, tc.n, 37);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += tc.center_stride) {
    sources.push_back(v);
  }
  const auto fast = core::run_algorithm1(g, sources, tc.delta, tc.cap);
  const auto exact = core::run_algorithm1_exact(g, sources, tc.delta, tc.cap);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(fast.knowledge[v].size(), exact.knowledge[v].size()) << v;
    for (std::size_t i = 0; i < fast.knowledge[v].size(); ++i) {
      EXPECT_EQ(fast.knowledge[v][i].origin, exact.knowledge[v][i].origin);
      EXPECT_EQ(fast.knowledge[v][i].dist, exact.knowledge[v][i].dist);
      EXPECT_EQ(fast.knowledge[v][i].parent, exact.knowledge[v][i].parent);
    }
    EXPECT_EQ(fast.popular[v], exact.popular[v]);
  }
  EXPECT_EQ(fast.messages, exact.messages);
  EXPECT_EQ(fast.rounds_charged, exact.rounds_charged);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Algorithm1Contract,
    ::testing::Values(Alg1Case{"er", 60, 2, 4, 1},
                      Alg1Case{"er", 60, 3, 2, 2},
                      Alg1Case{"grid", 64, 4, 3, 1},
                      Alg1Case{"grid", 64, 2, 8, 3},
                      Alg1Case{"cycle", 40, 5, 2, 4},
                      Alg1Case{"tree", 63, 3, 3, 1},
                      Alg1Case{"hypercube", 64, 2, 6, 1},
                      Alg1Case{"dumbbell", 50, 2, 5, 1},
                      Alg1Case{"er_dense", 80, 2, 24, 2},
                      Alg1Case{"geometric", 80, 3, 8, 3},
                      Alg1Case{"er", 300, 2, 6, 1},
                      Alg1Case{"geometric", 200, 3, 5, 2}),
    [](const auto& param_info) {
      const auto& c = param_info.param;
      return c.family + "_n" + std::to_string(c.n) + "_d" +
             std::to_string(c.delta) + "_c" + std::to_string(c.cap) + "_s" +
             std::to_string(c.center_stride);
    });

TEST(Algorithm1, DeterministicAcrossRuns) {
  const Graph g = graph::make_workload("er", 200, 41);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += 2) sources.push_back(v);
  const auto a = core::run_algorithm1(g, sources, 3, 5);
  const auto b = core::run_algorithm1(g, sources, 3, 5);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(a.knowledge[v].size(), b.knowledge[v].size());
    for (std::size_t i = 0; i < a.knowledge[v].size(); ++i) {
      EXPECT_EQ(a.knowledge[v][i].origin, b.knowledge[v][i].origin);
      EXPECT_EQ(a.knowledge[v][i].parent, b.knowledge[v][i].parent);
    }
  }
}

/// Every list's (origin, dist, parent), then popular, messages and
/// max_edge_layer_load, folded in vertex order.
std::uint64_t result_digest(const Algorithm1Result& res) {
  metrics::Digest d;
  for (const auto& list : res.knowledge) {
    d.add(list.size());
    for (const auto& k : list) {
      d.add(k.origin);
      d.add(k.dist);
      d.add(k.parent);
    }
  }
  for (const std::uint8_t p : res.popular) d.add(p);
  d.add(res.messages);
  d.add(res.max_edge_layer_load);
  return d.value();
}

/// Receivers whose list filled in a layer that offered more new origins than
/// it had free slots, recomputed from the result: at layer L a neighbor u
/// forwards itself (L == 1, u a source) or the origins it learned at L - 1.
std::size_t mid_layer_fills(const Graph& g, const std::vector<Vertex>& sources,
                            const Algorithm1Result& res, std::uint64_t cap) {
  std::vector<std::uint8_t> is_source(g.num_vertices(), 0);
  for (Vertex s : sources) is_source[s] = 1;
  std::size_t fills = 0;
  for (Vertex w = 0; w < g.num_vertices(); ++w) {
    const auto& list = res.knowledge[w];
    if (list.size() < cap) continue;
    const std::uint32_t layer = list.back().dist;
    std::vector<Vertex> offered;
    for (Vertex u : g.neighbors(w)) {
      if (layer == 1 && is_source[u]) offered.push_back(u);
      for (const auto& k : res.knowledge[u]) {
        if (k.dist + 1 == layer) offered.push_back(k.origin);
      }
    }
    std::sort(offered.begin(), offered.end());
    offered.erase(std::unique(offered.begin(), offered.end()), offered.end());
    std::size_t fresh = 0;
    std::size_t taken = 0;
    for (Vertex o : offered) {
      const auto* k = core::find_knowledge(list, o);
      if (o != w && (k == nullptr || k->dist == layer)) ++fresh;
    }
    for (const auto& k : list) taken += k.dist == layer ? 1 : 0;
    if (fresh > taken) ++fills;
  }
  return fills;
}

struct PinnedCase {
  std::string family;
  graph::Vertex n;
  std::uint64_t delta;
  std::uint64_t cap;
  int center_stride;
  std::size_t mid_layer_fills;
  std::uint64_t digest;
};

// Lists, popularity and message charge at sizes the exact engine cannot
// reach.  The digests were computed with the tuple-sort execution that the
// receiver scan replaced; `cap` 500 on geometric is the uncapped EN17 use
// (cap >= |S|).
TEST(Algorithm1, PinnedDigestsAtScale) {
  const std::vector<PinnedCase> cases = {
      {"geometric", 2000, 4, 8, 1, 1981, 0x4a226f97020380d},
      {"geometric", 2000, 6, 24, 5, 1821, 0x4e869f77d067fa86},
      {"geometric", 500, 5, 500, 2, 0, 0x1760ea254aef7a9b},
      {"dumbbell", 2000, 3, 16, 1, 1604, 0xa2d86a16d8bbf5fa},
      {"dumbbell", 600, 8, 6, 3, 487, 0x4f5ebba4aafd6d7f},
      {"er_dense", 2000, 2, 24, 1, 1944, 0xd4cf83fd49287a0a},
      {"er_dense", 1000, 3, 60, 4, 1000, 0xbfb30f3c23e54c6f},
      {"ba", 2000, 3, 12, 1, 1979, 0x1720d62f55336193},
      {"ba", 1200, 4, 40, 6, 1192, 0xd9952d65cde5bc9},
      {"grid", 2000, 10, 20, 1, 1780, 0x1160f1f6872dfe55},
      {"grid", 900, 12, 6, 7, 261, 0x1d5767bf936da60},
  };
  for (const auto& tc : cases) {
    const Graph g = graph::make_workload(tc.family, tc.n, 43);
    std::vector<Vertex> sources;
    for (Vertex v = 0; v < g.num_vertices(); v += tc.center_stride) {
      sources.push_back(v);
    }
    const auto res = core::run_algorithm1(g, sources, tc.delta, tc.cap);
    const std::size_t fills = mid_layer_fills(g, sources, res, tc.cap);
    const std::uint64_t digest = result_digest(res);
    EXPECT_EQ(fills, tc.mid_layer_fills) << tc.family << " n=" << tc.n;
    EXPECT_EQ(digest, tc.digest)
        << tc.family << " n=" << tc.n << " actual {\"" << tc.family << "\", "
        << tc.n << ", " << tc.delta << ", " << tc.cap << ", "
        << tc.center_stride << ", " << fills << ", 0x" << std::hex << digest
        << std::dec << "},";
  }
}

}  // namespace
