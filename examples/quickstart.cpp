// Quickstart: build a near-additive spanner of a random graph and print
// what you got.
//
//   ./quickstart [--n 1000] [--family er] [--eps 0.25] [--kappa 3] [--rho 0.4]
#include <iostream>

#include "core/elkin_matar.hpp"
#include "graph/generators.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "verify/stretch.hpp"

int main(int argc, char** argv) {
  using namespace nas;
  util::Flags flags(argc, argv);
  const auto n = util::Flags::in_range<graph::Vertex>(
      "n", flags.integer("n", 1000, "target vertex count"));
  const std::string family = flags.str("family", "er", "workload family");
  const double eps = flags.real("eps", 0.25, "epsilon");
  const int kappa = util::Flags::in_range<int>(
      "kappa", flags.integer("kappa", 3, "kappa"));
  const double rho = flags.real("rho", 0.4, "rho");
  if (flags.handle_help("quickstart — build a spanner and print what you got")) {
    return 0;
  }
  flags.reject_unknown();

  const auto g = graph::make_workload(family, n, /*seed=*/42);
  std::cout << "input: " << g.summary() << " (" << family << ")\n";

  const auto params = core::Params::practical(g.num_vertices(), eps, kappa, rho);
  std::cout << "schedule: " << params.describe() << "\n\n";

  const auto result = core::build_spanner(g, params);

  util::Table t({"phase", "|P_i|", "|W_i|", "|RS_i|", "|U_i|", "delta_i",
                 "deg_i", "edges+", "rounds"});
  for (const auto& ph : result.trace.phases) {
    t.add_row({std::to_string(ph.index), std::to_string(ph.num_clusters),
               std::to_string(ph.num_popular), std::to_string(ph.num_rulers),
               std::to_string(ph.num_settled), std::to_string(ph.delta),
               std::to_string(ph.deg),
               std::to_string(ph.edges_super + ph.edges_inter),
               std::to_string(ph.rounds_total())});
  }
  t.print(std::cout);

  const auto stretch = verify::verify_stretch_sampled(
      g, result.spanner, params.stretch_multiplicative(),
      params.stretch_additive(), 32, /*seed=*/7);

  std::cout << "\nspanner: " << result.spanner.num_edges() << " edges ("
            << 100.0 * result.spanner.num_edges() / std::max<std::size_t>(g.num_edges(), 1)
            << "% of input)\n";
  std::cout << "simulated CONGEST rounds: " << result.ledger.rounds() << "\n";
  std::cout << "guaranteed stretch: d_H <= " << params.stretch_multiplicative()
            << "*d_G + " << params.stretch_additive() << "\n";
  std::cout << "measured (sampled): max multiplicative "
            << stretch.max_multiplicative << ", max additive "
            << stretch.max_additive
            << (stretch.bound_ok ? "  [bound OK]" : "  [BOUND VIOLATED]")
            << "\n";
  return stretch.bound_ok ? 0 : 1;
}
