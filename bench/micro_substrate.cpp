// Experiment M1 — google-benchmark microbenchmarks of the substrates:
// generators, BFS oracles, the CONGEST engine, Algorithm 1, the ruling set,
// and the full pipeline.  These are wall-clock throughput numbers for the
// simulator itself (not paper claims); they document that the reproduction
// runs comfortably at laptop scale.
#include <benchmark/benchmark.h>

#include <cmath>

#include "congest/engine.hpp"
#include "congest/protocols.hpp"
#include "core/elkin_matar.hpp"
#include "core/popular.hpp"
#include "core/ruling_set.hpp"
#include "graph/apsp.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"

using namespace nas;

namespace {

void BM_GenerateErdosRenyi(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::erdos_renyi(n, 8.0 / n, 1));
  }
}
BENCHMARK(BM_GenerateErdosRenyi)->Arg(1024)->Arg(8192);

void BM_Bfs(benchmark::State& state) {
  const auto g = graph::make_workload("er", static_cast<graph::Vertex>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs(g, 0));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Bfs)->Arg(1024)->Arg(8192);

void BM_Apsp(benchmark::State& state) {
  const auto g = graph::make_workload("er", static_cast<graph::Vertex>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::Apsp(g));
  }
}
BENCHMARK(BM_Apsp)->Arg(256)->Arg(1024);

void BM_CongestEngineBroadcast(benchmark::State& state) {
  const auto g = graph::make_workload("er", static_cast<graph::Vertex>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(congest::broadcast(g, 0, 42));
  }
}
BENCHMARK(BM_CongestEngineBroadcast)->Arg(512)->Arg(2048);

// The round engine on an all-to-all flood program (every vertex
// re-broadcasts every round): the worst-case message volume the spanner
// protocols generate.
void BM_RoundEngineFlood(benchmark::State& state) {
  const auto g = graph::make_workload("er", static_cast<graph::Vertex>(state.range(0)), 1);
  std::vector<std::uint64_t> value(g.num_vertices(), 1);
  const auto program = [&](graph::Vertex v, std::uint64_t,
                           std::span<const congest::Message> inbox,
                           congest::Mailbox& mbox) {
    for (const auto& m : inbox) value[v] += m.a;
    for (graph::Vertex u : g.neighbors(v)) mbox.send(u, {.a = value[v] & 0xff});
  };
  for (auto _ : state) {
    congest::Engine engine(g);
    engine.run_rounds(8, program);
    benchmark::DoNotOptimize(engine.messages_sent());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 2 * g.num_edges());
}
BENCHMARK(BM_RoundEngineFlood)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_Algorithm1(benchmark::State& state) {
  const auto g = graph::make_workload("er", static_cast<graph::Vertex>(state.range(0)), 1);
  std::vector<graph::Vertex> centers;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) centers.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_algorithm1(g, centers, 4, 8));
  }
}
BENCHMARK(BM_Algorithm1)->Arg(1024)->Arg(4096);

void BM_RulingSet(benchmark::State& state) {
  const auto g = graph::make_workload("er", static_cast<graph::Vertex>(state.range(0)), 1);
  std::vector<graph::Vertex> w;
  for (graph::Vertex v = 0; v < g.num_vertices(); v += 2) w.push_back(v);
  const auto b = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(
             std::ceil(std::pow(static_cast<double>(g.num_vertices()), 1.0 / 3))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_ruling_set(g, w, 4, 3, b));
  }
}
BENCHMARK(BM_RulingSet)->Arg(1024)->Arg(4096);

void BM_FullSpanner(benchmark::State& state) {
  const auto g = graph::make_workload("er", static_cast<graph::Vertex>(state.range(0)), 1);
  const auto params = core::Params::practical(g.num_vertices(), 0.25, 3, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_spanner(g, params, {.validate = false}));
  }
}
BENCHMARK(BM_FullSpanner)->Arg(512)->Arg(2048)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
