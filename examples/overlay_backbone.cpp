// Example: sparse communication backbone for a dense overlay network.
//
// The classic spanner application from the paper's introduction (synchro-
// nizers, broadcast overlays): a dense network wants a sparse subgraph over
// which to run expensive all-to-all protocols, while promising that routes
// stay near-optimal.  We build the near-additive spanner of a dense
// clustered network, then compare:
//   * edges maintained (link-state overhead),
//   * broadcast cost (messages = edges touched by a flood),
//   * route quality (distance inflation on sampled routes).
//
//   ./overlay_backbone [--n 1500] [--eps 0.25] [--kappa 4] [--rho 0.45]
#include <iostream>

#include "congest/protocols.hpp"
#include "core/elkin_matar.hpp"
#include "graph/generators.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "verify/stretch.hpp"

int main(int argc, char** argv) {
  using namespace nas;
  util::Flags flags(argc, argv);
  const auto n = util::Flags::in_range<graph::Vertex>(
      "n", flags.integer("n", 1500, "target vertex count"));
  const double eps = flags.real("eps", 0.25, "epsilon");
  const int kappa = util::Flags::in_range<int>(
      "kappa", flags.integer("kappa", 4, "kappa"));
  const double rho = flags.real("rho", 0.45, "rho");
  if (flags.handle_help("overlay_backbone — sparse communication backbone")) {
    return 0;
  }
  flags.reject_unknown();

  const auto g = graph::make_workload("caveman", n, 2024);
  std::cout << "overlay network: " << g.summary()
            << " (clustered topology: dense caves + sparse bridges)\n\n";

  const auto params = core::Params::practical(g.num_vertices(), eps, kappa, rho);
  const auto result = core::build_spanner(g, params, {.validate = false});
  const auto& backbone = result.spanner;

  // Broadcast cost: a flood touches every edge twice in the worst case, so
  // messages scale with the edge count; measure via the CONGEST simulator.
  congest::Ledger full_ledger, thin_ledger;
  (void)congest::broadcast(g, 0, 7, &full_ledger);
  (void)congest::broadcast(backbone, 0, 7, &thin_ledger);

  const auto quality = verify::verify_stretch_sampled(
      g, backbone, params.stretch_multiplicative(), params.stretch_additive(),
      64, 9);

  util::Table t({"metric", "full overlay", "spanner backbone", "change"});
  t.add_row({"links maintained", std::to_string(g.num_edges()),
             std::to_string(backbone.num_edges()),
             util::Table::num(100.0 * backbone.num_edges() / g.num_edges()) +
                 "% kept"});
  t.add_row({"broadcast messages", std::to_string(full_ledger.messages()),
             std::to_string(thin_ledger.messages()),
             util::Table::num(100.0 * thin_ledger.messages() /
                              std::max<std::uint64_t>(full_ledger.messages(), 1)) +
                 "% of cost"});
  t.add_row({"broadcast rounds", std::to_string(full_ledger.rounds()),
             std::to_string(thin_ledger.rounds()),
             "+" + std::to_string(thin_ledger.rounds() -
                                  std::min(full_ledger.rounds(),
                                           thin_ledger.rounds())) +
                 " rounds"});
  t.add_row({"worst route inflation (sampled)", "1.00",
             util::Table::num(quality.max_multiplicative),
             "max additive " + std::to_string(quality.max_additive)});
  t.print(std::cout);

  std::cout << "\nguarantee carried by the backbone: every route is within "
            << params.stretch_multiplicative() << "x + "
            << params.stretch_additive() << " of optimal"
            << (quality.bound_ok ? " (verified on samples)\n"
                                 : " (VIOLATED?!)\n");
  std::cout << "construction cost: " << result.ledger.rounds()
            << " simulated CONGEST rounds, deterministic (no randomness to "
               "re-roll on failure).\n";
  return quality.bound_ok ? 0 : 1;
}
