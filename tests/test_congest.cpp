// Tests for the CONGEST simulator: the exact round engine, its bandwidth
// enforcement, and the standard protocols.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "congest/engine.hpp"
#include "congest/ledger.hpp"
#include "congest/protocols.hpp"
#include "graph/apsp.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"

namespace {

using namespace nas;
using namespace nas::congest;
using graph::Graph;
using graph::Vertex;

TEST(Ledger, SectionsAccumulate) {
  Ledger ledger;
  ledger.begin_section("a");
  ledger.charge_rounds(10);
  ledger.charge_messages(5);
  ledger.begin_section("b");
  ledger.charge_rounds(1);
  EXPECT_EQ(ledger.rounds(), 11u);
  EXPECT_EQ(ledger.messages(), 5u);
  ASSERT_EQ(ledger.sections().size(), 2u);
  EXPECT_EQ(ledger.sections()[0].rounds, 10u);
  EXPECT_EQ(ledger.sections()[1].rounds, 1u);
}

TEST(Ledger, WindowCapacityCheck) {
  Ledger ledger;
  EXPECT_NO_THROW(ledger.check_window_capacity(5, 5, "ok"));
  EXPECT_THROW(ledger.check_window_capacity(6, 5, "bad"), std::logic_error);
}

TEST(Engine, DeliversNextRound) {
  const Graph g = graph::path(3);
  Engine engine(g);
  std::vector<int> received(3, 0);
  engine.run_rounds(3, [&](Vertex v, std::uint64_t round,
                           std::span<const Message> inbox,
                           Engine::Mailbox& mbox) {
    for (const auto& m : inbox) received[v] += static_cast<int>(m.a);
    if (round == 0 && v == 0) mbox.send(1, {.a = 7});
  });
  EXPECT_EQ(received[1], 7);
  EXPECT_EQ(received[0], 0);
  EXPECT_EQ(received[2], 0);
}

TEST(Engine, EnforcesOneMessagePerEdgePerRound) {
  const Graph g = graph::path(2);
  Engine engine(g);
  EXPECT_THROW(
      engine.run_rounds(1, [&](Vertex v, std::uint64_t, std::span<const Message>,
                               Engine::Mailbox& mbox) {
        if (v == 0) {
          mbox.send(1, {.a = 1});
          mbox.send(1, {.a = 2});  // second message on the same edge: illegal
        }
      }),
      std::logic_error);
}

TEST(Engine, BothDirectionsAllowedInOneRound) {
  const Graph g = graph::path(2);
  Engine engine(g);
  EXPECT_NO_THROW(engine.run_rounds(
      1, [&](Vertex v, std::uint64_t, std::span<const Message>,
             Engine::Mailbox& mbox) { mbox.send(v == 0 ? 1 : 0, {.a = 1}); }));
  EXPECT_EQ(engine.messages_sent(), 2u);
}

TEST(Engine, SendToNonNeighborThrows) {
  const Graph g = graph::path(3);  // 0-1-2; 0 and 2 not adjacent
  Engine engine(g);
  EXPECT_THROW(
      engine.run_rounds(1, [&](Vertex v, std::uint64_t, std::span<const Message>,
                               Engine::Mailbox& mbox) {
        if (v == 0) mbox.send(2, {.a = 1});
      }),
      std::invalid_argument);
}

TEST(Engine, InboxSortedBySender) {
  const Graph g = graph::star(5);  // center 0
  Engine engine(g);
  std::vector<Vertex> order;
  engine.run_rounds(2, [&](Vertex v, std::uint64_t round,
                           std::span<const Message> inbox,
                           Engine::Mailbox& mbox) {
    if (round == 0 && v != 0) mbox.send(0, {.a = v});
    if (v == 0) {
      for (const auto& m : inbox) order.push_back(m.src);
    }
  });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Engine, QuiescenceStopsEarly) {
  const Graph g = graph::path(4);
  Engine engine(g);
  const auto rounds = engine.run_until_quiescent(
      [&](Vertex v, std::uint64_t round, std::span<const Message>,
          Engine::Mailbox& mbox) {
        if (round == 0 && v == 0) mbox.send(1, {.a = 1});
      },
      [] { return true; }, 100);
  EXPECT_LT(rounds, 100u);
}

TEST(Engine, BandwidthGuardResetsBetweenRuns) {
  // A program that legally sends in round 1 must not trip the guard on a
  // second run of the same engine (round numbering restarts per run).
  const auto program = [](Vertex v, std::uint64_t round,
                          std::span<const Message>, Engine::Mailbox& mbox) {
    if (v == 0 && round == 1) mbox.send(1, {.a = 1});
  };
  const Graph g = graph::path(2);
  Engine engine(g);
  EXPECT_NO_THROW(engine.run_rounds(2, program));
  EXPECT_NO_THROW(engine.run_rounds(2, program));
}

TEST(Engine, CompletedRunCarriesLastRoundIntoNextRun) {
  const Graph g = graph::path(2);
  Engine engine(g);
  engine.run_rounds(1, [](Vertex v, std::uint64_t, std::span<const Message>,
                          Engine::Mailbox& mbox) {
    if (v == 0) mbox.send(1, {.a = 5});
  });
  std::vector<std::uint64_t> seen;
  engine.run_rounds(1, [&](Vertex, std::uint64_t, std::span<const Message> in,
                           Engine::Mailbox&) {
    for (const auto& m : in) seen.push_back(m.a);
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{5}));
}

TEST(Engine, FailedRunLeavesNothingInFlight) {
  // Edges 0-1 and 0-2.  The failing round stages a=7 to 2 and a=7 to 1
  // before its second send to 1 violates the bandwidth constraint; a
  // later run on the same engine must receive none of it.
  const Graph g = Graph::from_edges(3, {{0, 1}, {0, 2}});
  Engine engine(g);
  const auto silent_run_inbox = [&] {
    std::size_t received = 0;
    engine.run_rounds(3, [&](Vertex, std::uint64_t, std::span<const Message> in,
                             Engine::Mailbox&) { received += in.size(); });
    return received;
  };
  EXPECT_THROW(engine.run_rounds(
                   1,
                   [](Vertex v, std::uint64_t, std::span<const Message>,
                      Engine::Mailbox& mbox) {
                     if (v == 0) {
                       mbox.send(2, {.a = 7});
                       mbox.send(1, {.a = 7});
                       mbox.send(1, {.a = 8});
                     }
                   }),
               std::logic_error);
  EXPECT_EQ(silent_run_inbox(), 0u);

  // Failing in a later round drops that round's deliveries too.
  EXPECT_THROW(engine.run_rounds(
                   2,
                   [](Vertex v, std::uint64_t round, std::span<const Message>,
                      Engine::Mailbox& mbox) {
                     if (v == 0) mbox.send(1, {.a = round});
                     if (v == 2 && round == 1) mbox.send(1, {.a = 9});
                   }),
               std::invalid_argument);  // 2 and 1 are not adjacent
  EXPECT_EQ(silent_run_inbox(), 0u);

  // The engine still enforces the constraint.
  EXPECT_THROW(engine.run_rounds(
                   1,
                   [](Vertex v, std::uint64_t, std::span<const Message>,
                      Engine::Mailbox& mbox) {
                     if (v == 0) {
                       mbox.send(1, {.a = 1});
                       mbox.send(1, {.a = 2});
                     }
                   }),
               std::logic_error);
}

// --- whole families ---------------------------------------------------------

/// The engine's end state and message count on whole graphs, checked against
/// the centralized answers.  The runs last the largest finite distance plus
/// two rounds, by which the BFS and the min-ID flood have settled.
class EngineFamilies : public ::testing::TestWithParam<std::string> {
 protected:
  const Graph g_ = graph::make_workload(GetParam(), 120, 5);
  const std::uint64_t rounds_ =
      std::uint64_t{graph::Apsp(g_).max_finite_distance()} + 2;
};

TEST_P(EngineFamilies, BfsEndsAtCentralizedDistances) {
  // A vertex learns its distance d from the first message it receives, in
  // round d, and sends on every incident edge in that round only.
  std::vector<std::uint32_t> dist(g_.num_vertices(), graph::kInfDist);
  dist[0] = 0;
  Engine engine(g_);
  engine.run_rounds(rounds_, [&](Vertex v, std::uint64_t round,
                                 std::span<const Message> inbox,
                                 Engine::Mailbox& mbox) {
    for (const auto& m : inbox) {
      if (dist[v] == graph::kInfDist) {
        dist[v] = static_cast<std::uint32_t>(m.b) + 1;
      }
    }
    if (dist[v] == round) {
      for (Vertex u : g_.neighbors(v)) mbox.send(u, {.b = dist[v]});
    }
  });
  const auto expected = graph::bfs(g_, 0);
  EXPECT_EQ(dist, expected.dist);
  std::uint64_t reached_degrees = 0;
  for (Vertex v = 0; v < g_.num_vertices(); ++v) {
    if (expected.dist[v] != graph::kInfDist) reached_degrees += g_.degree(v);
  }
  EXPECT_EQ(engine.messages_sent(), reached_degrees);
}

TEST_P(EngineFamilies, MinIdFloodEndsAtComponentMinimum) {
  // Every vertex re-announces its best ID whenever it improves.
  std::vector<Vertex> best(g_.num_vertices());
  for (Vertex v = 0; v < g_.num_vertices(); ++v) best[v] = v;
  Engine engine(g_);
  engine.run_rounds(rounds_, [&](Vertex v, std::uint64_t round,
                                 std::span<const Message> inbox,
                                 Engine::Mailbox& mbox) {
    bool improved = round == 0;
    for (const auto& m : inbox) {
      if (m.a < best[v]) {
        best[v] = static_cast<Vertex>(m.a);
        improved = true;
      }
    }
    if (improved) {
      for (Vertex u : g_.neighbors(v)) mbox.send(u, {.a = best[v]});
    }
  });
  const auto comp = graph::connected_components(g_);
  std::vector<Vertex> smallest(comp.count, graph::kInvalidVertex);
  for (Vertex v = 0; v < g_.num_vertices(); ++v) {
    smallest[comp.component[v]] = std::min(smallest[comp.component[v]], v);
  }
  for (Vertex v = 0; v < g_.num_vertices(); ++v) {
    EXPECT_EQ(best[v], smallest[comp.component[v]]) << "vertex " << v;
  }
}

TEST_P(EngineFamilies, SendingOnEveryEdgeEveryRound) {
  // From round 1 on, each inbox holds one message per neighbor, in
  // ascending sender order, each sent in the round before.
  Engine engine(g_);
  std::uint64_t bad_inboxes = 0;
  engine.run_rounds(rounds_, [&](Vertex v, std::uint64_t round,
                                 std::span<const Message> inbox,
                                 Engine::Mailbox& mbox) {
    const auto nb = g_.neighbors(v);
    bool ok = inbox.size() == (round == 0 ? 0 : nb.size());
    for (std::size_t i = 0; ok && i < inbox.size(); ++i) {
      ok = inbox[i].src == nb[i] && inbox[i].a == round - 1;
    }
    if (!ok) ++bad_inboxes;
    for (Vertex u : nb) mbox.send(u, {.a = round});
  });
  EXPECT_EQ(bad_inboxes, 0u);
  EXPECT_EQ(engine.messages_sent(), rounds_ * 2 * g_.num_edges());
}

INSTANTIATE_TEST_SUITE_P(Families, EngineFamilies,
                         ::testing::Values("er", "grid", "tree", "cycle",
                                           "dumbbell", "hypercube"),
                         [](const auto& param_info) { return param_info.param; });

// --- protocols --------------------------------------------------------------

class CongestBfsFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(CongestBfsFamilies, MatchesCentralizedDistances) {
  const Graph g = graph::make_workload(GetParam(), 150, 11);
  const auto oracle = graph::bfs(g, 0);
  Ledger ledger;
  const auto res = congest_bfs(g, {0}, g.num_vertices(), &ledger);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(res.tree.dist[v], oracle.dist[v]) << "vertex " << v;
  }
  EXPECT_GT(ledger.rounds(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Families, CongestBfsFamilies,
                         ::testing::Values("er", "grid", "hypercube", "tree",
                                           "dumbbell", "cycle"),
                         [](const auto& param_info) { return param_info.param; });

TEST(CongestBfs, DepthBounded) {
  const Graph g = graph::path(10);
  const auto res = congest_bfs(g, {0}, 4);
  EXPECT_EQ(res.tree.dist[4], 4u);
  EXPECT_EQ(res.tree.dist[5], graph::kInfDist);
  EXPECT_EQ(res.rounds, 5u);
}

TEST(CongestBfs, MultiSourceRoots) {
  const Graph g = graph::path(9);
  const auto res = congest_bfs(g, {0, 8}, 10);
  const auto oracle = graph::multi_source_bfs(g, {0, 8});
  for (Vertex v = 0; v < 9; ++v) EXPECT_EQ(res.tree.dist[v], oracle.dist[v]);
  EXPECT_EQ(res.tree.root[1], 0u);
  EXPECT_EQ(res.tree.root[7], 8u);
}

TEST(CongestBfs, ParentsFormValidTree) {
  const Graph g = graph::make_workload("er", 200, 13);
  const auto res = congest_bfs(g, {0}, g.num_vertices());
  for (Vertex v = 1; v < g.num_vertices(); ++v) {
    if (res.tree.dist[v] == graph::kInfDist) continue;
    const Vertex p = res.tree.parent[v];
    ASSERT_NE(p, graph::kInvalidVertex);
    EXPECT_TRUE(g.has_edge(v, p));
    EXPECT_EQ(res.tree.dist[v], res.tree.dist[p] + 1);
  }
}

TEST(Broadcast, EveryoneLearnsValue) {
  const Graph g = graph::make_workload("grid", 100, 1);
  const auto res = broadcast(g, 0, 99);
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(res.value[v], 99u);
}

TEST(Broadcast, RoundsNearDiameter) {
  const Graph g = graph::path(20);
  const auto res = broadcast(g, 0, 1);
  EXPECT_GE(res.rounds, 19u);
  EXPECT_LE(res.rounds, 22u);
}

TEST(LeaderElection, FindsMinIdPerComponent) {
  const Graph g = graph::Graph::from_edges(6, {{5, 3}, {3, 4}, {1, 2}});
  const auto res = elect_min_id_leader(g);
  EXPECT_EQ(res.leader[5], 3u);
  EXPECT_EQ(res.leader[4], 3u);
  EXPECT_EQ(res.leader[2], 1u);
  EXPECT_EQ(res.leader[0], 0u);
}

TEST(Convergecast, SumsUpTree) {
  const Graph g = graph::binary_tree(7);
  const auto tree = graph::bfs(g, 0);
  std::vector<std::uint64_t> values(7, 1);
  const auto total = convergecast_sum(g, tree.parent, 0, values);
  EXPECT_EQ(total, 7u);
}

TEST(Convergecast, SizeMismatchThrows) {
  const Graph g = graph::path(3);
  EXPECT_THROW((void)convergecast_sum(g, {0}, 0, {1, 1, 1}),
               std::invalid_argument);
}

}  // namespace
