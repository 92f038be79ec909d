// Unit tests for the graph core (graph.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace {

using namespace nas::graph;

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, FromEdgesBasic) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, ParallelEdgesDeduplicated) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, OutOfRangeEndpointRejected) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 3}}), std::invalid_argument);
}

TEST(Graph, NeighborsSorted) {
  const Graph g = Graph::from_edges(5, {{2, 4}, {2, 0}, {2, 3}, {2, 1}});
  const auto nb = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
}

// from_edges against a reference built from sorted canonical keys, on
// seeded random multigraphs: duplicates, both orientations, isolated
// vertices, and a few hub vertices with long lists.
TEST(Graph, FromEdgesMatchesSortedKeyReference) {
  nas::util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<Vertex>(1 + rng.below(80));
    std::vector<Edge> edges;
    const std::uint64_t count = n < 2 ? 0 : rng.below(4 * n);
    for (std::uint64_t i = 0; i < count; ++i) {
      // Every fourth edge touches a hub, so some lists pass 16 entries.
      const auto u = static_cast<Vertex>(rng.below(i % 4 == 0 ? 3 : n));
      auto v = static_cast<Vertex>(rng.below(n));
      if (u == v) v = (v + 1) % n;
      edges.emplace_back(u, v);
      if (rng.below(3) == 0) edges.emplace_back(v, u);  // the other way
      if (rng.below(5) == 0) edges.emplace_back(u, v);  // a repeat
    }
    std::vector<std::uint64_t> keys;
    for (const auto& [u, v] : edges) keys.push_back(edge_key(u, v));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::vector<std::vector<Vertex>> lists(n);
    std::vector<Edge> canonical_edges;
    for (const std::uint64_t k : keys) {
      const auto u = static_cast<Vertex>(k >> 32);
      const auto v = static_cast<Vertex>(k & 0xffffffffu);
      lists[u].push_back(v);
      lists[v].push_back(u);
      canonical_edges.emplace_back(u, v);
    }
    const Graph g = Graph::from_edges(n, edges);
    ASSERT_EQ(g.num_vertices(), n);
    ASSERT_EQ(g.num_edges(), keys.size()) << "trial " << trial;
    EXPECT_EQ(g.edges(), canonical_edges) << "trial " << trial;
    for (Vertex v = 0; v < n; ++v) {
      std::sort(lists[v].begin(), lists[v].end());
      const auto nb = g.neighbors(v);
      ASSERT_TRUE(std::equal(nb.begin(), nb.end(), lists[v].begin(),
                             lists[v].end()))
          << "trial " << trial << " vertex " << v;
    }
  }
}

TEST(Graph, EdgesReturnsCanonicalSorted) {
  const Graph g = Graph::from_edges(4, {{3, 1}, {2, 0}});
  const auto es = g.edges();
  ASSERT_EQ(es.size(), 2u);
  EXPECT_EQ(es[0], (Edge{0, 2}));
  EXPECT_EQ(es[1], (Edge{1, 3}));
}

TEST(Graph, MaxAndAverageDegree) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
}

TEST(Graph, SummaryMentionsCounts) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  EXPECT_EQ(g.summary(), "Graph(n=2, m=1)");
}

TEST(EdgeKey, CanonicalAndSymmetric) {
  EXPECT_EQ(edge_key(3, 7), edge_key(7, 3));
  EXPECT_NE(edge_key(3, 7), edge_key(3, 8));
  EXPECT_EQ(canonical(9, 2), (Edge{2, 9}));
}

TEST(EdgeSet, InsertIsIdempotent) {
  EdgeSet h(5);
  EXPECT_TRUE(h.insert(1, 2));
  EXPECT_FALSE(h.insert(2, 1));
  EXPECT_EQ(h.size(), 1u);
  EXPECT_TRUE(h.contains(1, 2));
  EXPECT_TRUE(h.contains(2, 1));
  EXPECT_FALSE(h.contains(1, 3));
}

TEST(EdgeSet, RejectsBadEdges) {
  EdgeSet h(3);
  EXPECT_THROW(h.insert(0, 0), std::invalid_argument);
  EXPECT_THROW(h.insert(0, 5), std::invalid_argument);
}

TEST(EdgeSet, ToGraphRoundtrip) {
  EdgeSet h(4);
  h.insert(0, 1);
  h.insert(2, 3);
  const Graph g = h.to_graph();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

}  // namespace
