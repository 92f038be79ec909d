// Experiment A1 — the Theorem 2.1 contract of Algorithm 1 (Appendix A),
// measured: round cost against the deg*delta schedule, knowledge
// completeness of unpopular centers, per-edge layer load against the
// CONGEST window capacity.
#include <iostream>

#include "bench_common.hpp"
#include "core/popular.hpp"
#include "graph/bfs.hpp"

using namespace nas;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto n = util::Flags::in_range<graph::Vertex>(
      "n", flags.integer("n", 1000, "target vertex count"));
  const std::string family = flags.str("family", "er", "workload family");
  const std::string csv_path = flags.str("csv", "", "CSV output path");
  if (flags.handle_help("alg1_popularity — A1: Algorithm 1 contract")) return 0;
  flags.reject_unknown();

  bench::banner("A1", "Algorithm 1 (popular cluster detection) contract");
  const auto g = graph::make_workload(family, n, 41);
  std::cout << "workload: " << family << " " << g.summary() << "\n\n";

  std::vector<graph::Vertex> centers;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) centers.push_back(v);

  util::CsvWriter csv(csv_path, {"delta", "cap", "rounds", "schedule",
                                 "messages", "max_edge_layer_load", "popular",
                                 "complete_ok"});
  util::Table t({"delta", "cap", "rounds", "= 1+delta*cap", "messages",
                 "max edge load/layer (<=cap)", "#popular",
                 "unpopular knowledge complete"});

  for (const std::uint64_t delta : {1, 2, 4, 8}) {
    for (const std::uint64_t cap : {2, 8, 32}) {
      const auto res = core::run_algorithm1(g, centers, delta, cap);
      std::uint64_t popular = 0;
      for (graph::Vertex v : centers) popular += res.popular[v];

      // Completeness check for a sample of unpopular centers.
      bool complete = true;
      int checked = 0;
      for (graph::Vertex v = 0; v < g.num_vertices() && checked < 50; v += 7) {
        if (res.popular[v]) continue;
        ++checked;
        const auto bfs = graph::bfs(g, v);
        std::size_t within = 0;
        for (graph::Vertex u : centers) {
          if (u != v && bfs.dist[u] != graph::kInfDist && bfs.dist[u] <= delta) {
            ++within;
          }
        }
        if (res.knowledge[v].size() != within) complete = false;
      }

      t.add_row({std::to_string(delta), std::to_string(cap),
                 std::to_string(res.rounds_charged),
                 std::to_string(1 + delta * cap), std::to_string(res.messages),
                 std::to_string(res.max_edge_layer_load), std::to_string(popular),
                 complete ? "yes" : "NO"});
      csv.row({std::to_string(delta), std::to_string(cap),
               std::to_string(res.rounds_charged),
               std::to_string(1 + delta * cap), std::to_string(res.messages),
               std::to_string(res.max_edge_layer_load), std::to_string(popular),
               complete ? "1" : "0"});
    }
  }
  t.print(std::cout);
  std::cout << "\nshape checks: rounds follow the 1+delta*cap schedule exactly;\n"
            << "per-edge layer load never exceeds cap (CONGEST capacity);\n"
            << "popularity counts grow with delta and shrink with cap.\n";
  return 0;
}
