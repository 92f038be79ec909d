// Experiment F1-F4 — regenerates the structures the paper's Figures 1-4
// illustrate, as measured per-phase statistics:
//
//   Fig 1: superclusters grown around chosen popular centers
//            -> |P_i|, |W_i| (popular), |RS_i| (chosen), coverage of W_i
//   Fig 2: BFS trees of new superclusters added to H
//            -> edges added by the superclustering step, forest depth
//   Fig 3: disjoint delta-neighborhoods of ruling-set members
//            -> verified (q+1)-separation => disjointness (Theorem 2.2)
//   Fig 4: root-to-center paths added to H
//            -> measured cluster radii vs the Lemma 2.3 bound R_{i+1}
//
// Also checks the cluster-counting Lemmas 2.10/2.11:
//   |P_i| <= n^{1-(2^i-1)/kappa}            (exponential growth stage)
//   |P_i| <= n^{1+1/kappa-(i-i0)rho}        (fixed growth stage)
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
  if (flags.handle_help(
          "figures_superclustering — F1-F4: per-phase structure")) {
    return 0;
  }
  flags.reject_unknown();

  bench::banner("F1-F4", "superclustering structure per phase (Figures 1-4)");

  util::CsvWriter csv(csv_path,
                      {"family", "phase", "clusters", "popular", "rulers",
                       "settled", "lemma_bound", "edges_super", "edges_inter",
                       "measured_radius", "radius_bound"});

  bool lemmas_ok = true;
  for (const std::string family : {"er_dense", "caveman", "geometric"}) {
    const auto g = graph::make_workload(family, n, 17);
    const auto params =
        core::Params::practical(g.num_vertices(), eps, kappa, rho);
    std::cout << "workload: " << family << " " << g.summary() << "\n"
              << "schedule: " << params.describe() << "\n";
    const auto result = core::build_spanner(g, params, {.validate = true});

    util::Table t({"phase", "|P_i|", "Lemma 2.10/2.11 bound", "|W_i|",
                   "|RS_i|", "|U_i|", "Fig2 edges+",
                   "Fig4 rad (meas<=bound)", "Fig3 sep/dom ok"});
    const double dn = g.num_vertices();
    const auto lemma_bound = [&](int index) {
      // Lemma 2.10 for the exponential stage (and its last index i0+1),
      // Lemma 2.11 beyond.
      if (index <= params.i0() + 1) {
        return std::pow(dn, 1.0 - (std::ldexp(1.0, index) - 1.0) / kappa);
      }
      return std::pow(dn, 1.0 + 1.0 / kappa - (index - params.i0()) * rho);
    };
    for (const auto& ph : result.trace.phases) {
      const double bound = lemma_bound(ph.index);
      if (static_cast<double>(ph.num_clusters) > bound + 1e-9) {
        lemmas_ok = false;
      }
      t.add_row({std::to_string(ph.index), std::to_string(ph.num_clusters),
                 util::Table::num(bound), std::to_string(ph.num_popular),
                 std::to_string(ph.num_rulers), std::to_string(ph.num_settled),
                 std::to_string(ph.edges_super),
                 std::to_string(ph.measured_max_radius) + " <= " +
                     std::to_string(ph.radius_bound_next) +
                     (ph.radius_ok ? " ok" : " VIOLATED"),
                 (ph.separation_ok && ph.domination_ok) ? "yes" : "NO"});
      csv.row({family, std::to_string(ph.index),
               std::to_string(ph.num_clusters), std::to_string(ph.num_popular),
               std::to_string(ph.num_rulers), std::to_string(ph.num_settled),
               util::Table::num(bound, 3), std::to_string(ph.edges_super),
               std::to_string(ph.edges_inter),
               std::to_string(ph.measured_max_radius),
               std::to_string(ph.radius_bound_next)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Lemma 2.10/2.11 cluster-count bounds: "
            << (lemmas_ok ? "hold at every phase" : "VIOLATED") << "\n"
            << "Theorem 2.2 separation/domination and Lemma 2.3 radii were\n"
            << "verified during the runs (the build throws on violation).\n";
  return lemmas_ok ? 0 : 1;
}
