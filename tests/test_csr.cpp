// Tests for graph::Csr, the flat serving-time adjacency: structural
// equivalence with Graph across generator families, O(1) shared-storage
// copies with keep-alive lifetime, and the to_graph round-trip.  BFS over
// the CSR is compared against graph::bfs in test_bfs_kernels.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

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

}  // namespace
