// Experiment F5 — regenerates the paper's Figure 5 (interconnection paths)
// as measured statistics: for every phase, how many shortest paths the
// unpopular clusters installed, how long they are (<= delta_i by Theorem
// 2.1), and how the added-edge total compares to the Lemma 2.12 bound
// O(n^{1+1/kappa} * delta_i).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/elkin_matar.hpp"

using namespace nas;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto n = util::Flags::in_range<graph::Vertex>(
      "n", flags.integer("n", 1200, "target vertex count"));
  const double eps = flags.real("eps", 0.25, "epsilon");
  const int kappa = util::Flags::in_range<int>(
      "kappa", flags.integer("kappa", 3, "kappa"));
  const double rho = flags.real("rho", 0.4, "rho");
  const std::string csv_path = flags.str("csv", "", "CSV output path");
  if (flags.handle_help("figure5_interconnection — F5: interconnection step")) {
    return 0;
  }
  flags.reject_unknown();

  bench::banner("F5", "interconnection step per phase (Figure 5)");

  util::CsvWriter csv(csv_path, {"family", "phase", "u_centers", "paths",
                                 "edges", "max_path", "delta", "lemma212"});

  for (const std::string family : {"er", "grid", "ba"}) {
    const auto g = graph::make_workload(family, n, 19);
    const auto params =
        core::Params::practical(g.num_vertices(), eps, kappa, rho);
    const auto result = core::build_spanner(g, params, {.validate = false});
    std::cout << "workload: " << family << " " << g.summary() << "\n";

    util::Table t({"phase", "|U_i|", "paths installed", "avg paths/center",
                   "edges+", "max path len", "delta_i",
                   "Lemma 2.12 bound n^{1+1/k}*delta"});
    for (const auto& ph : result.trace.phases) {
      const double bound =
          std::pow(static_cast<double>(g.num_vertices()), 1.0 + 1.0 / kappa) *
          static_cast<double>(ph.delta);
      t.add_row(
          {std::to_string(ph.index), std::to_string(ph.num_settled),
           std::to_string(ph.paths_inter),
           ph.num_settled
               ? util::Table::num(static_cast<double>(ph.paths_inter) /
                                  static_cast<double>(ph.num_settled))
               : "-",
           std::to_string(ph.edges_inter), std::to_string(ph.max_inter_path),
           std::to_string(ph.delta), util::Table::sci(bound)});
      csv.row({family, std::to_string(ph.index), std::to_string(ph.num_settled),
               std::to_string(ph.paths_inter), std::to_string(ph.edges_inter),
               std::to_string(ph.max_inter_path), std::to_string(ph.delta),
               util::Table::sci(bound, 6)});
    }
    t.print(std::cout);

    // Shape checks (Figure 5 / Theorem 2.1 / Lemma 2.12).
    bool ok = true;
    for (const auto& ph : result.trace.phases) {
      if (ph.max_inter_path > ph.delta) ok = false;  // paths <= delta_i
      const double bound =
          std::pow(static_cast<double>(g.num_vertices()), 1.0 + 1.0 / kappa) *
          static_cast<double>(ph.delta);
      if (static_cast<double>(ph.edges_inter) > bound) ok = false;
      // Unpopular centers install at most deg_i paths each.
      if (ph.num_settled > 0 && !result.trace.phases[ph.index].domination_ok) {
        ok = false;
      }
      if (ph.num_settled > 0 &&
          ph.paths_inter > ph.num_settled * ph.deg) {
        ok = false;
      }
    }
    std::cout << "  path length <= delta_i, <= deg_i paths per center, and\n"
              << "  Lemma 2.12 edge bound: " << (ok ? "all hold" : "VIOLATED")
              << "\n\n";
    if (!ok) return 1;
  }
  return 0;
}
