// Command-line spanner tool: read an edge list, write the spanner's edge
// list plus a stats summary — the "downstream user" entry point.
//
//   ./spanner_tool --in graph.txt --out spanner.txt
//       [--eps 0.25] [--kappa 3] [--rho 0.4] [--mode practical|paper]
//       [--verify 32]          # sampled stretch verification with k sources
//       [--verify-threads 0]   # verification worker shards; 0 = all cores
//                              # (the report is identical at any count)
//
// Input format: "n m" header line, then one "u v" pair per line ('#'
// comments allowed).  Exit code 0 iff construction (and verification, if
// requested) succeeded.
//
// Thin wrapper over the scenario runner: one file-sourced ScenarioSpec,
// executed like any other experiment (keep_graphs retains the spanner for
// the edge-list dump).
#include <iostream>

#include "core/params.hpp"
#include "graph/io.hpp"
#include "run/runner.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nas;
  try {
    util::Flags flags(argc, argv);
    run::ScenarioSpec spec;
    const std::string in_path =
        flags.str("in", "", "input edge-list file (required)");
    const std::string out_path =
        flags.str("out", "", "write the spanner's edge list here");
    spec.eps = flags.real("eps", 0.25, "epsilon");
    spec.kappa = util::Flags::in_range<int>(
        "kappa", flags.integer("kappa", 3, "kappa"));
    spec.rho = flags.real("rho", 0.4, "rho");
    spec.mode = flags.str("mode", "practical", "schedule: practical|paper");
    spec.verify_sources = util::Flags::in_range<std::uint32_t>(
        "verify", flags.integer("verify", 0,
                                "sampled verification sources (0 = off)"));
    spec.verify_mode = spec.verify_sources > 0 ? "sampled" : "off";
    spec.verify_threads = util::Flags::in_range<unsigned>(
        "verify-threads",
        flags.integer("verify-threads", 0, "verifier shards, 0 = all cores"));
    if (flags.handle_help(
            "spanner_tool — build a near-additive spanner of an edge list")) {
      return 0;
    }
    flags.reject_unknown();

    if (in_path.empty()) {
      std::cerr << "usage: spanner_tool --in graph.txt [--out spanner.txt]\n"
                   "       [--eps E] [--kappa K] [--rho R] [--mode practical|paper]\n"
                   "       [--verify NUM_SOURCES] [--verify-threads T]\n"
                   "       (--help lists all flags)\n";
      return 2;
    }
    spec.family = "file:" + in_path;

    run::Runner runner;
    run::RunOptions run_options;
    run_options.keep_graphs = true;
    const auto row = runner.run_one(spec, 0, run_options);
    if (!row.ok) {
      std::cerr << "error: " << row.error << "\n";
      return 2;
    }
    std::cerr << "read Graph(n=" << row.n << ", m=" << row.m << ") from "
              << in_path << "\n";
    std::cerr << "schedule: "
              << (spec.mode == "paper"
                      ? core::Params::paper(row.n, spec.eps, spec.kappa,
                                            spec.rho)
                      : core::Params::practical(row.n, spec.eps, spec.kappa,
                                                spec.rho))
                     .describe()
              << "\n";

    if (!out_path.empty()) {
      graph::write_edge_list_file(*row.spanner, out_path);
      std::cerr << "wrote " << row.spanner_edges << " edges to " << out_path
                << "\n";
    }

    util::Table t({"metric", "value"});
    t.add_row({"input edges", std::to_string(row.m)});
    t.add_row({"spanner edges", std::to_string(row.spanner_edges)});
    t.add_row({"kept %",
               util::Table::num(100.0 * static_cast<double>(row.spanner_edges) /
                                std::max<std::uint64_t>(row.m, 1))});
    t.add_row({"simulated CONGEST rounds", std::to_string(row.rounds)});
    t.add_row({"guarantee multiplicative",
               util::Table::num(row.guarantee_mult)});
    t.add_row({"guarantee additive", util::Table::num(row.guarantee_add, 0)});
    t.print(std::cout);

    if (row.verified) {
      std::cout << "verification (" << row.report.pairs_checked
                << " pairs): max mult "
                << util::Table::num(row.report.max_multiplicative)
                << ", max additive " << row.report.max_additive << " -> "
                << (row.report.bound_ok ? "bound OK" : "BOUND VIOLATED")
                << "\n";
      if (!row.report.bound_ok) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
