// Experiment A2 — the Theorem 2.2 ruling-set contract, measured: separation
// >= q+1, domination <= q*c, and rounds against the O(q*c*n^{1/c}) schedule.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/ruling_set.hpp"
#include "graph/bfs.hpp"

using namespace nas;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto n = util::Flags::in_range<graph::Vertex>(
      "n", flags.integer("n", 1500, "target vertex count"));
  const std::string family = flags.str("family", "er", "workload family");
  const std::string csv_path = flags.str("csv", "", "CSV output path");
  if (flags.handle_help("ruling_contract — A2: Theorem 2.2 contract")) return 0;
  flags.reject_unknown();

  bench::banner("A2", "deterministic ruling set (Theorem 2.2) contract");
  const auto g = graph::make_workload(family, n, 43);
  std::cout << "workload: " << family << " " << g.summary() << "\n\n";

  std::vector<graph::Vertex> w;
  for (graph::Vertex v = 0; v < g.num_vertices(); v += 2) w.push_back(v);

  util::CsvWriter csv(csv_path, {"q", "c", "b", "rulers", "min_sep", "sep_req",
                                 "max_dom", "dom_bound", "rounds", "schedule"});
  util::Table t({"q", "c", "b", "|A|", "min separation (>= q+1)",
                 "max domination (<= q*c)", "rounds", "= c*b*(q+1)"});

  for (const int c : {2, 3, 4}) {
    const auto b = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(std::ceil(
               std::pow(static_cast<double>(g.num_vertices()), 1.0 / c))));
    for (const std::uint64_t q : {2, 4, 8}) {
      const auto res = core::compute_ruling_set(g, w, q, c, b);

      // Measure separation (min pairwise distance) and domination.
      std::uint32_t min_sep = graph::kInfDist;
      for (graph::Vertex r : res.rulers) {
        const auto bfs = graph::bfs(g, r);
        for (graph::Vertex r2 : res.rulers) {
          if (r2 != r && bfs.dist[r2] != graph::kInfDist) {
            min_sep = std::min(min_sep, bfs.dist[r2]);
          }
        }
      }
      std::uint32_t max_dom = 0;
      {
        const auto bfs = graph::multi_source_bfs(g, res.rulers);
        for (graph::Vertex v : w) max_dom = std::max(max_dom, bfs.dist[v]);
      }
      const std::uint64_t schedule = static_cast<std::uint64_t>(c) * b * (q + 1);
      t.add_row({std::to_string(q), std::to_string(c), std::to_string(b),
                 std::to_string(res.rulers.size()),
                 min_sep == graph::kInfDist ? "inf" : std::to_string(min_sep),
                 std::to_string(max_dom), std::to_string(res.rounds_charged),
                 std::to_string(schedule)});
      csv.row({std::to_string(q), std::to_string(c), std::to_string(b),
               std::to_string(res.rulers.size()), std::to_string(min_sep),
               std::to_string(q + 1), std::to_string(max_dom),
               std::to_string(q * c), std::to_string(res.rounds_charged),
               std::to_string(schedule)});
      if ((min_sep != graph::kInfDist && min_sep < q + 1) || max_dom > q * c) {
        std::cout << "CONTRACT VIOLATED\n";
        return 1;
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nshape checks: separation/domination always within contract;\n"
            << "rounds grow as q*c*n^{1/c} — larger c trades rounds per\n"
            << "sub-step for a larger domination radius, exactly the knob the\n"
            << "paper turns with c = 1/rho.\n";
  return 0;
}
