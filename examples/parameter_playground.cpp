// Example: exploring the (eps, kappa, rho) tradeoff surface on a fixed
// workload — the three knobs of Corollary 2.18:
//   * kappa  — sparsity exponent: |H| = O(beta * n^{1+1/kappa});
//   * rho    — round exponent: O(beta * n^rho / rho) time, but beta grows
//              as rho shrinks;
//   * eps    — stretch: beta ~ eps^{-ell}.
//
//   ./parameter_playground [--n 1000] [--family er_dense]
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
  const std::string family =
      flags.str("family", "er_dense", "workload family");
  if (flags.handle_help(
          "parameter_playground — the (eps, kappa, rho) tradeoff surface")) {
    return 0;
  }
  flags.reject_unknown();

  const auto g = graph::make_workload(family, n, 4242);
  std::cout << "workload: " << g.summary() << " (" << family << ")\n\n";

  util::Table t({"eps", "kappa", "rho", "ell", "phases (delta_i)", "|H|",
                 "rounds", "measured max mult", "measured max add",
                 "proven (M, A)"});

  for (const double eps : {0.5, 0.25}) {
    for (const int kappa : {3, 4, 8}) {
      for (const double rho : {0.45, 0.4}) {
        if (rho < 1.0 / kappa || kappa * rho < 1.0) continue;
        const auto params =
            core::Params::practical(g.num_vertices(), eps, kappa, rho);
        const auto result = core::build_spanner(g, params, {.validate = false});
        const auto rep = verify::verify_stretch_sampled(
            g, result.spanner, params.stretch_multiplicative(),
            params.stretch_additive(), 32, 1);

        std::string deltas;
        for (const auto& ph : params.phases()) {
          if (!deltas.empty()) deltas += ",";
          deltas += std::to_string(ph.delta);
        }
        // Assemble via += (GCC 12's -Wrestrict false positive PR105651
        // flags `"(" + rvalue string`).
        std::string bound = "(";
        bound += util::Table::num(params.stretch_multiplicative());
        bound += ", ";
        bound += util::Table::num(params.stretch_additive(), 0);
        bound += ")";
        if (!rep.bound_ok) bound += " VIOLATED";
        t.add_row({util::Table::num(eps), std::to_string(kappa),
                   util::Table::num(rho), std::to_string(params.ell()),
                   deltas, std::to_string(result.spanner.num_edges()),
                   std::to_string(result.ledger.rounds()),
                   util::Table::num(rep.max_multiplicative),
                   std::to_string(rep.max_additive), bound});
      }
    }
  }
  t.print(std::cout);

  std::cout << "\nreading the table:\n"
            << "  * larger kappa  -> smaller |H| (sparser), more phases;\n"
            << "  * smaller rho   -> fewer rounds per n but bigger deltas\n"
            << "                     (beta explodes as rho -> 1/kappa);\n"
            << "  * smaller eps   -> larger deltas and rounds, tighter\n"
            << "                     multiplicative error on long routes.\n";
  return 0;
}
