// Tests for the asynchronous engine and synchronizer α: the synchronized
// execution of a synchronous NodeProgram must be bit-identical to the exact
// synchronous engine, under arbitrary (seeded) message delays.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "congest/async.hpp"
#include "congest/engine.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"

namespace {

using namespace nas;
using namespace nas::congest;
using graph::Graph;
using graph::kInfDist;
using graph::kInvalidVertex;
using graph::Vertex;

TEST(AsyncEngine, DeliversWithDelayAndFifo) {
  const Graph g = graph::path(2);
  AsyncEngine engine(g, {.seed = 3, .max_delay = 5});
  std::vector<std::uint64_t> seen;
  engine.inject(0, 1, {.a = 1});
  engine.inject(0, 1, {.a = 2});
  engine.inject(0, 1, {.a = 3});
  const auto t = engine.run([&](Vertex v, std::uint64_t, const Message& m,
                                AsyncEngine::Port&) {
    if (v == 1) seen.push_back(m.a);
  });
  // FIFO: order preserved regardless of drawn delays.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_GE(t, 3u);  // three FIFO deliveries need three distinct times
  EXPECT_EQ(engine.messages_delivered(), 3u);
}

TEST(AsyncEngine, HandlerCanReply) {
  const Graph g = graph::path(2);
  AsyncEngine engine(g, {.seed = 1, .max_delay = 3});
  int pongs = 0;
  engine.inject(0, 1, {.a = 7});
  engine.run([&](Vertex v, std::uint64_t, const Message& m,
                 AsyncEngine::Port& port) {
    if (v == 1 && m.a == 7) port.send(0, {.a = 8});
    if (v == 0 && m.a == 8) ++pongs;
  });
  EXPECT_EQ(pongs, 1);
}

TEST(AsyncEngine, ValidatesInputs) {
  const Graph g = graph::path(3);
  EXPECT_THROW(AsyncEngine(g, {.seed = 1, .max_delay = 0}),
               std::invalid_argument);
  AsyncEngine engine(g, {});
  EXPECT_THROW(engine.inject(0, 2, {}), std::invalid_argument);  // not adjacent
}

TEST(AsyncEngine, EventBudgetGuard) {
  const Graph g = graph::path(2);
  AsyncEngine engine(g, {});
  engine.inject(0, 1, {.a = 1});
  // Infinite ping-pong must hit the budget, not hang.
  EXPECT_THROW(engine.run(
                   [&](Vertex v, std::uint64_t, const Message&,
                       AsyncEngine::Port& port) {
                     port.send(v == 0 ? 1 : 0, {.a = 1});
                   },
                   1000),
               std::runtime_error);
}

// --- synchronizer α ----------------------------------------------------------

/// BFS as a synchronous node program writing into `dist`.
Engine::NodeProgram bfs_program(const Graph& g, Vertex source,
                                std::vector<std::uint32_t>& dist) {
  dist.assign(g.num_vertices(), kInfDist);
  dist[source] = 0;
  return [&g, &dist](Vertex v, std::uint64_t round,
                     std::span<const Message> inbox, Engine::Mailbox& mbox) {
    for (const auto& m : inbox) {
      if (dist[v] == kInfDist) dist[v] = static_cast<std::uint32_t>(m.b) + 1;
    }
    if (dist[v] == round) {
      for (Vertex u : g.neighbors(v)) mbox.send(u, {.b = dist[v]});
    }
  };
}

/// Min-ID flood writing into `best`: best[v] converges to the smallest
/// vertex ID in v's component; a vertex re-announces whenever it improves.
Engine::NodeProgram min_id_program(const Graph& g,
                                   std::vector<std::uint64_t>& best) {
  best.resize(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) best[v] = v;
  return [&g, &best](Vertex v, std::uint64_t round,
                     std::span<const Message> inbox, Engine::Mailbox& mbox) {
    bool improved = round == 0;
    for (const auto& m : inbox) {
      if (m.a < best[v]) {
        best[v] = m.a;
        improved = true;
      }
    }
    if (improved) {
      for (Vertex u : g.neighbors(v)) mbox.send(u, {.a = best[v]});
    }
  };
}

/// Order-sensitive mixer: every round each vertex hashes its (sorted) inbox
/// into `state` and re-broadcasts, so any difference in inbox order or
/// content snowballs.  Only fields a and b are used; α reserves c.
Engine::NodeProgram mixer_program(const Graph& g,
                                  std::vector<std::uint64_t>& state) {
  state.resize(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    state[v] = 0x9e3779b97f4a7c15ULL * (v + 1);
  }
  return [&g, &state](Vertex v, std::uint64_t, std::span<const Message> inbox,
                      Engine::Mailbox& mbox) {
    for (const auto& m : inbox) {
      std::uint64_t h = state[v] ^ (m.a + 0x9e3779b97f4a7c15ULL +
                                    (static_cast<std::uint64_t>(m.src) << 17));
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      state[v] = h;
    }
    for (Vertex u : g.neighbors(v)) mbox.send(u, {.a = state[v], .b = v});
  };
}

/// Runs the program `make(state)` returns for `rounds` rounds on the exact
/// Engine and under α at two delay seeds: the per-vertex state, the payload
/// message count and the round count must agree.
template <typename State, typename Make>
void expect_alpha_matches_engine(const Graph& g, std::uint64_t rounds,
                                 const Make& make) {
  std::vector<State> sync_state;
  Engine engine(g);
  engine.run_rounds(rounds, make(sync_state));

  for (const std::uint64_t seed : {1ull, 99ull}) {
    SCOPED_TRACE("alpha seed " + std::to_string(seed));
    std::vector<State> async_state;
    const auto rep = run_alpha_synchronized(g, rounds, make(async_state),
                                            {.seed = seed, .max_delay = 7});
    EXPECT_EQ(async_state, sync_state);
    EXPECT_EQ(rep.payload_messages, engine.messages_sent());
    EXPECT_EQ(rep.rounds, rounds);
    EXPECT_GT(rep.virtual_time, 0u);
    EXPECT_GT(rep.control_messages, 0u);
  }
}

class AlphaFamilies : public ::testing::TestWithParam<std::string> {
 protected:
  const Graph g_ = graph::make_workload(GetParam(), 120, 5);
  const std::uint64_t diameter_rounds_ = static_cast<std::uint64_t>(
      graph::diameter_largest_component(g_) + 2);
};

TEST_P(AlphaFamilies, BfsMatchesSynchronousExecution) {
  expect_alpha_matches_engine<std::uint32_t>(
      g_, diameter_rounds_, [&](auto& dist) { return bfs_program(g_, 0, dist); });
}

TEST_P(AlphaFamilies, MinIdFloodMatchesSynchronousExecution) {
  expect_alpha_matches_engine<std::uint64_t>(
      g_, diameter_rounds_, [&](auto& best) { return min_id_program(g_, best); });
}

TEST_P(AlphaFamilies, MixerMatchesSynchronousExecution) {
  // All-to-all traffic every round; a handful of rounds is plenty for any
  // ordering discrepancy to snowball through the hash chain.
  expect_alpha_matches_engine<std::uint64_t>(
      g_, 6, [&](auto& state) { return mixer_program(g_, state); });
}

INSTANTIATE_TEST_SUITE_P(Families, AlphaFamilies,
                         ::testing::Values("er", "grid", "tree", "cycle",
                                           "dumbbell", "hypercube"),
                         [](const auto& param_info) { return param_info.param; });

TEST(Alpha, ControlOverheadScalesWithEdges) {
  // Per executed round, α exchanges SAFE on every edge-direction plus one
  // ack per payload: control >= 2m * rounds once every node participates.
  const Graph g = graph::make_workload("er", 150, 7);
  std::vector<std::uint32_t> dist;
  const auto rep =
      run_alpha_synchronized(g, 5, bfs_program(g, 0, dist), {.seed = 2});
  EXPECT_GE(rep.control_messages,
            2 * g.num_edges() * 4u);  // SAFE both directions, most rounds
  EXPECT_GT(rep.virtual_time, 5u);    // latency exceeds the round count
}

TEST(Alpha, SparseOverlayReducesControlTraffic) {
  // The reason spanners exist ([Awe85]): synchronizing over a sparse
  // subgraph costs proportionally fewer control messages per round.
  const Graph dense = graph::make_workload("er_dense", 300, 9);
  const Graph sparse = graph::make_workload("er", 300, 9);
  std::vector<std::uint32_t> d1, d2;
  const auto rep_dense =
      run_alpha_synchronized(dense, 4, bfs_program(dense, 0, d1), {.seed = 3});
  const auto rep_sparse =
      run_alpha_synchronized(sparse, 4, bfs_program(sparse, 0, d2), {.seed = 3});
  EXPECT_GT(rep_dense.control_messages, rep_sparse.control_messages);
}

TEST(Alpha, ZeroRoundsIsNoop) {
  const Graph g = graph::path(4);
  std::vector<std::uint32_t> dist;
  const auto rep = run_alpha_synchronized(g, 0, bfs_program(g, 0, dist), {});
  EXPECT_EQ(rep.virtual_time, 0u);
  EXPECT_EQ(rep.payload_messages, 0u);
}

TEST(Alpha, RejectsProgramsUsingFieldC) {
  const Graph g = graph::path(3);
  EXPECT_THROW(
      run_alpha_synchronized(
          g, 2,
          [&](Vertex v, std::uint64_t, std::span<const Message>,
              Engine::Mailbox& mbox) {
            if (v == 0) mbox.send(1, {.c = std::uint64_t{1} << 60});
          },
          {}),
      std::invalid_argument);
}

TEST(Alpha, EnforcesCongestPerRound) {
  const Graph g = graph::path(2);
  EXPECT_THROW(run_alpha_synchronized(
                   g, 1,
                   [&](Vertex v, std::uint64_t, std::span<const Message>,
                       Engine::Mailbox& mbox) {
                     if (v == 0) {
                       mbox.send(1, {.a = 1});
                       mbox.send(1, {.a = 2});
                     }
                   },
                   {}),
               std::logic_error);
}

TEST(Alpha, DeterministicPerSeed) {
  const Graph g = graph::make_workload("er", 100, 11);
  std::vector<std::uint32_t> d1, d2;
  const auto a =
      run_alpha_synchronized(g, 4, bfs_program(g, 0, d1), {.seed = 5});
  const auto b =
      run_alpha_synchronized(g, 4, bfs_program(g, 0, d2), {.seed = 5});
  EXPECT_EQ(a.virtual_time, b.virtual_time);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(d1, d2);
}

}  // namespace
