// Tests for graph::Csr, the flat serving-time adjacency: structural
// equivalence with Graph across generator families, O(1) shared-storage
// copies with keep-alive lifetime, the to_graph round-trip, and the BFS-order
// relabelling the oracle and the verifier search on.  BFS over the CSR is
// compared against graph::bfs in test_bfs_kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace {

using namespace nas;
using graph::Csr;
using graph::Graph;
using graph::Vertex;

void expect_structurally_equal(const Graph& g, const Csr& c) {
  ASSERT_EQ(c.num_vertices(), g.num_vertices());
  ASSERT_EQ(c.num_edges(), g.num_edges());
  ASSERT_EQ(c.offsets().size(), static_cast<std::size_t>(g.num_vertices()) + 1);
  ASSERT_EQ(c.entries().size(), 2 * g.num_edges());
  EXPECT_EQ(c.offsets().front(), 0u);
  EXPECT_EQ(c.offsets().back(), c.entries().size());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto ga = g.neighbors(v);
    const auto ca = c.neighbors(v);
    ASSERT_EQ(ca.size(), ga.size()) << "vertex " << v;
    ASSERT_EQ(c.degree(v), ga.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
      ASSERT_EQ(ca[i], ga[i]) << "vertex " << v << " slot " << i;
    }
  }
}

TEST(Csr, FromGraphMatchesAdjacencyAcrossFamilies) {
  for (const char* family : {"er", "grid", "ba", "path", "complete"}) {
    const Graph g = graph::make_workload(family, 120, 3);
    const Csr c = Csr::from_graph(g);
    SCOPED_TRACE(family);
    expect_structurally_equal(g, c);
    EXPECT_EQ(c.summary(), g.summary());
  }
}

TEST(Csr, HandcraftedAndEmptyGraphs) {
  const Csr empty;
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_TRUE(empty.offsets().empty());
  EXPECT_TRUE(empty.entries().empty());

  const Csr zero = Csr::from_graph(Graph::from_edges(0, {}));
  EXPECT_EQ(zero.num_vertices(), 0u);

  // Isolated vertices get empty, valid neighbor ranges.
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 3}, {3, 0}});
  const Csr c = Csr::from_graph(g);
  expect_structurally_equal(g, c);
  EXPECT_EQ(c.degree(2), 0u);
  EXPECT_EQ(c.degree(4), 0u);
  EXPECT_TRUE(c.neighbors(2).empty());
}

TEST(Csr, CopiesShareStorageAndKeepAliveHoldsViews) {
  const Graph g = graph::make_workload("er", 80, 1);
  const Csr a = Csr::from_graph(g);
  const Csr b = a;  // O(1): same spans, shared keep-alive
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_TRUE(b.shares_storage_with(a));

  // Independent builds over the same graph own distinct arrays.
  const Csr c = Csr::from_graph(g);
  EXPECT_FALSE(a.shares_storage_with(c));

  // Empty Csrs never claim to share (no arrays to share).
  EXPECT_FALSE(Csr().shares_storage_with(Csr()));

  // A view stays valid while any copy holds the keep-alive, even after the
  // handle the caller supplied is gone.
  auto owned = std::make_shared<std::vector<std::uint64_t>>(
      std::vector<std::uint64_t>{0, 1, 2});
  auto entries = std::make_shared<std::vector<Vertex>>(std::vector<Vertex>{1, 0});
  struct Bundle {
    std::shared_ptr<std::vector<std::uint64_t>> offsets;
    std::shared_ptr<std::vector<Vertex>> entries;
  };
  auto bundle = std::make_shared<Bundle>(Bundle{owned, entries});
  Csr view = Csr::view({owned->data(), owned->size()},
                       {entries->data(), entries->size()}, bundle);
  owned.reset();
  entries.reset();
  bundle.reset();
  EXPECT_EQ(view.num_vertices(), 2u);
  EXPECT_EQ(view.neighbors(0).front(), 1u);
  EXPECT_EQ(view.neighbors(1).front(), 0u);
}

TEST(Csr, AdoptAndToGraphRoundTrip) {
  const Graph g = graph::make_workload("ba", 90, 5);
  const Csr c = Csr::from_graph(g);
  const Graph back = c.to_graph();
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  expect_structurally_equal(back, c);

  const Csr adopted = Csr::adopt({0, 1, 2}, {1, 0});
  EXPECT_EQ(adopted.num_vertices(), 2u);
  EXPECT_EQ(adopted.num_edges(), 1u);
  const Graph tiny = adopted.to_graph();
  EXPECT_EQ(tiny.num_edges(), 1u);
  EXPECT_EQ(tiny.neighbors(0).front(), 1u);
}

// --- relabelling -------------------------------------------------------------

/// Checks that `r` is `c` renamed by r.to_new: a permutation of [0, n), every
/// neighbor list ascending, and (u, v) an edge of c iff (to_new[u],
/// to_new[v]) is an edge of r.csr.
void expect_relabelling_of(const Csr& c, const graph::RelabelledCsr& r) {
  const Vertex n = c.num_vertices();
  ASSERT_EQ(r.csr.num_vertices(), n);
  ASSERT_EQ(r.csr.num_edges(), c.num_edges());
  ASSERT_EQ(r.to_new.size(), n);
  std::vector<Vertex> sorted(r.to_new);
  std::sort(sorted.begin(), sorted.end());
  for (Vertex v = 0; v < n; ++v) ASSERT_EQ(sorted[v], v) << "not a permutation";
  for (Vertex v = 0; v < n; ++v) {
    const auto list = r.csr.neighbors(v);
    ASSERT_TRUE(std::is_sorted(list.begin(), list.end())) << "vertex " << v;
    ASSERT_EQ(std::adjacent_find(list.begin(), list.end()), list.end());
  }
  // Same degrees and every old edge present in the new graph: with equal
  // edge counts that is the "iff".
  for (Vertex u = 0; u < n; ++u) {
    const auto mapped = r.csr.neighbors(r.to_new[u]);
    ASSERT_EQ(mapped.size(), c.degree(u)) << "vertex " << u;
    for (const Vertex v : c.neighbors(u)) {
      ASSERT_TRUE(std::binary_search(mapped.begin(), mapped.end(),
                                     r.to_new[v]))
          << "edge " << u << "-" << v << " lost";
    }
  }
}

TEST(CsrRelabel, BfsOrderIsAPermutationThatKeepsEveryEdge) {
  for (const char* family : {"geometric", "er", "grid", "ba", "caveman"}) {
    SCOPED_TRACE(family);
    const Csr c = Csr::from_graph(graph::make_workload(family, 200, 4));
    const auto r = c.relabel_bfs_order();
    expect_relabelling_of(c, r);
    // Distances survive the renaming: d'(to_new[s], to_new[v]) = d(s, v).
    const Graph g = c.to_graph();
    const Graph renamed = r.csr.to_graph();
    const Vertex n = c.num_vertices();
    for (const Vertex s : {Vertex{0}, n / 3, n - 1}) {
      const auto before = graph::bfs(g, s).dist;
      const auto after = graph::bfs(renamed, r.to_new[s]).dist;
      for (Vertex v = 0; v < n; ++v) {
        ASSERT_EQ(after[r.to_new[v]], before[v]) << "s=" << s << " v=" << v;
      }
    }
  }
}

TEST(CsrRelabel, BfsOrderIsDeterministicAndFollowsTheBfs) {
  const Csr c = Csr::from_graph(graph::make_workload("geometric", 300, 9));
  const auto a = c.relabel_bfs_order();
  const auto b = c.relabel_bfs_order();
  EXPECT_EQ(a.to_new, b.to_new);
  EXPECT_TRUE(std::ranges::equal(a.csr.offsets(), b.csr.offsets()));
  EXPECT_TRUE(std::ranges::equal(a.csr.entries(), b.csr.entries()));
  // Vertex 0 is the first root, so BFS distances from it never decrease
  // along the new order.
  const auto dist = graph::bfs(a.csr.to_graph(), 0).dist;
  EXPECT_EQ(a.to_new[0], 0u);
  EXPECT_TRUE(std::is_sorted(dist.begin(), dist.end()));
}

TEST(CsrRelabel, ComponentsAndIsolatedVerticesTakeRootsInAscendingId) {
  // Components {0}, {1, 5}, {2, 4, 6} (path 2-6-4) and {3}.  BFS visits 0;
  // then 1, 5; then 2, 6, 4; then 3.
  const Csr c = Csr::from_graph(
      Graph::from_edges(7, {{4, 6}, {6, 2}, {1, 5}}));
  const auto r = c.relabel_bfs_order();
  EXPECT_EQ(r.to_new, (std::vector<Vertex>{0, 1, 3, 6, 5, 2, 4}));
  expect_relabelling_of(c, r);
  EXPECT_EQ(r.csr.degree(0), 0u);
  EXPECT_EQ(r.csr.degree(6), 0u);
  EXPECT_EQ(std::vector<Vertex>(r.csr.neighbors(4).begin(),
                                r.csr.neighbors(4).end()),
            (std::vector<Vertex>{3, 5}));
}

TEST(CsrRelabel, EmptyGraphsAndArbitraryPermutations) {
  for (const Csr& empty : {Csr(), Csr::from_graph(Graph::from_edges(0, {}))}) {
    const auto r = empty.relabel_bfs_order();
    EXPECT_EQ(r.csr.num_vertices(), 0u);
    EXPECT_EQ(r.csr.num_edges(), 0u);
    EXPECT_TRUE(r.to_new.empty());
    EXPECT_EQ(empty.relabel({}).num_vertices(), 0u);
  }

  // relabel() takes any permutation; the reverse one keeps lists ascending.
  const Csr c = Csr::from_graph(graph::make_workload("er", 90, 2));
  graph::RelabelledCsr reversed;
  for (Vertex v = 0; v < c.num_vertices(); ++v) {
    reversed.to_new.push_back(c.num_vertices() - 1 - v);
  }
  reversed.csr = c.relabel(reversed.to_new);
  expect_relabelling_of(c, reversed);

  EXPECT_THROW((void)c.relabel(std::vector<Vertex>(5, 0)),
               std::invalid_argument);
  std::vector<Vertex> duplicate(reversed.to_new);
  duplicate[1] = duplicate[0];
  EXPECT_THROW((void)c.relabel(duplicate), std::invalid_argument);
  std::vector<Vertex> out_of_range(reversed.to_new);
  out_of_range[0] = c.num_vertices();
  EXPECT_THROW((void)c.relabel(out_of_range), std::invalid_argument);
}

}  // namespace
