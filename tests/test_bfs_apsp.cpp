// Tests for the centralized distance oracles (bfs, apsp, components, io).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "graph/apsp.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

using namespace nas::graph;

TEST(Bfs, DistancesOnPath) {
  const Graph g = path(6);
  const auto res = bfs(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(res.dist[v], v);
  EXPECT_EQ(res.parent[3], 2u);
  EXPECT_EQ(res.root[5], 0u);
}

TEST(Bfs, UnreachableIsInf) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  const auto res = bfs(g, 0);
  EXPECT_EQ(res.dist[2], kInfDist);
  EXPECT_EQ(res.root[2], kInvalidVertex);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const Graph g = path(3);
  EXPECT_THROW(bfs(g, 5), std::invalid_argument);
}

TEST(Bfs, MultiSourceNearestRoot) {
  const Graph g = path(10);
  const auto res = multi_source_bfs(g, {0, 9});
  EXPECT_EQ(res.dist[4], 4u);
  EXPECT_EQ(res.root[4], 0u);
  EXPECT_EQ(res.dist[6], 3u);
  EXPECT_EQ(res.root[6], 9u);
}

TEST(Bfs, BoundedDepthStops) {
  const Graph g = path(10);
  const auto res = multi_source_bfs_bounded(g, {0}, 3);
  EXPECT_EQ(res.dist[3], 3u);
  EXPECT_EQ(res.dist[4], kInfDist);
}

TEST(Bfs, GridDistanceIsManhattan) {
  const Graph g = grid(5, 5);
  const auto res = bfs(g, 0);  // corner (0,0)
  EXPECT_EQ(res.dist[24], 8u);  // (4,4): 4+4
  EXPECT_EQ(res.dist[7], 3u);   // (1,2): 1+2
}

TEST(Bfs, HypercubeDistanceIsHamming) {
  const Graph g = hypercube(5);
  const auto res = bfs(g, 0);
  EXPECT_EQ(res.dist[0b10101], 3u);
  EXPECT_EQ(res.dist[0b11111], 5u);
}

TEST(Apsp, MatchesRepeatedBfs) {
  const Graph g = make_workload("er", 120, 3);
  const Apsp apsp(g);
  for (Vertex s = 0; s < g.num_vertices(); s += 17) {
    const auto res = bfs(g, s);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(apsp.dist(s, v), res.dist[v]);
    }
  }
}

TEST(Apsp, GuardsAgainstHugeGraphs) {
  const Graph g = path(100);
  EXPECT_THROW(Apsp(g, 50), std::invalid_argument);
}

TEST(Apsp, MaxFiniteDistance) {
  const Graph g = path(9);
  const Apsp apsp(g);
  EXPECT_EQ(apsp.max_finite_distance(), 8u);
}

TEST(Components, CountsAndSizes) {
  const Graph g = Graph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}});
  const auto comp = connected_components(g);
  EXPECT_EQ(comp.count, 4u);  // {0,1,2}, {3,4}, {5}, {6}
  EXPECT_EQ(comp.sizes[comp.largest], 3u);
  EXPECT_EQ(comp.component[0], comp.component[2]);
  EXPECT_NE(comp.component[0], comp.component[3]);
}

TEST(Components, IsConnected) {
  EXPECT_TRUE(is_connected(path(5)));
  EXPECT_FALSE(is_connected(Graph::from_edges(3, {{0, 1}})));
  EXPECT_TRUE(is_connected(Graph{}));
}

TEST(Components, LargestComponentRelabels) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {4, 5}});
  const auto lc = largest_component(g);
  EXPECT_EQ(lc.graph.num_vertices(), 3u);
  EXPECT_EQ(lc.graph.num_edges(), 2u);
  EXPECT_EQ(lc.new_to_old.size(), 3u);
  EXPECT_EQ(lc.old_to_new[4], kInvalidVertex);
}

TEST(Io, EdgeListRoundtrip) {
  const Graph g = make_workload("er", 80, 5);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(Io, CommentsAndMissingHeader) {
  std::stringstream ok("# comment\n3 1\n0 2\n");
  const Graph g = read_edge_list(ok);
  EXPECT_TRUE(g.has_edge(0, 2));
  std::stringstream bad("# only comments\n");
  EXPECT_THROW(read_edge_list(bad), std::runtime_error);
}

}  // namespace
