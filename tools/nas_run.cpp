// nas_run — the declarative experiment pipeline entry point.
//
// Expands a scenario matrix (from a scenario file, matrix flags, or both —
// flags refine the file), executes every scenario on Runner workers, prints
// a result table, and writes the unified JSON/CSV row schema.  Replaces the
// ad-hoc shell loops over per-figure binaries:
//
//   # 3 families x 2 sizes x 2 eps, verified, 4 runner workers
//   ./nas_run --family er,grid,ba --n 512,1024 --eps 0.25,0.5
//             --verify 16 --threads 4 --json results.json
//
//   # the same matrix as a scenario file
//   ./nas_run --scenario experiments/smoke.scenario --json results.json
//
// Output determinism: without --timing, the JSON/CSV bytes are identical at
// any --threads / --verify-threads value (rows are emitted in matrix order
// and every field is a pure function of the spec).
#include <iostream>

#include "run/runner.hpp"
#include "run/sinks.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace nas;

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);
    const std::string scenario_path =
        flags.str("scenario", "", "scenario file (key = value[, ...] lines)");
    const auto threads = util::Flags::in_range<unsigned>(
        "threads", flags.integer("threads", 1, "runner workers, 0 = all cores"));
    const std::string json_path =
        flags.str("json", "", "write unified JSON rows to this file");
    const std::string csv_path =
        flags.str("csv", "", "write unified CSV rows to this file");
    const bool timing = flags.boolean(
        "timing", false, "include wall-clock columns (nondeterministic)");
    const bool table =
        flags.boolean("table", true, "print the result table to stdout");
    const bool quiet =
        flags.boolean("quiet", false, "suppress per-scenario progress lines");

    run::ScenarioMatrix matrix;
    if (!scenario_path.empty() && !flags.help_requested()) {
      matrix = run::ScenarioMatrix::from_file(scenario_path);
    }
    matrix.apply_flags(flags);
    if (flags.handle_help(
            "nas_run — expand a scenario matrix and run every experiment")) {
      return 0;
    }
    flags.reject_unknown();

    const auto specs = matrix.expand();
    if (!quiet) {
      std::cerr << "nas_run: " << specs.size() << " scenarios, " << "threads="
                << threads << "\n";
    }

    run::Runner runner;
    run::RunOptions run_options;
    run_options.threads = threads;
    run_options.progress = !quiet;
    const auto rows = runner.run(specs, run_options);

    if (table) {
      util::Table t({"scenario", "n", "m", "|H|", "rounds", "verify",
                     "status"});
      for (const auto& row : rows) {
        t.add_row({row.spec.id(), std::to_string(row.n), std::to_string(row.m),
                   std::to_string(row.spanner_edges),
                   std::to_string(row.rounds),
                   row.verified ? std::to_string(row.report.pairs_checked) +
                                      " pairs"
                                : "-",
                   row.ok ? (row.passed() ? "ok" : "BOUND VIOLATED")
                          : row.error});
      }
      t.print(std::cout);
    }

    run::SinkOptions sink_options;
    sink_options.timing = timing;
    if (!json_path.empty()) {
      run::write_json(rows, json_path, sink_options);
      std::cerr << "wrote " << rows.size() << " rows to " << json_path << "\n";
    }
    if (!csv_path.empty()) {
      run::write_csv(rows, csv_path, sink_options);
      std::cerr << "wrote " << rows.size() << " rows to " << csv_path << "\n";
    }

    const auto stats = runner.cache().stats();
    if (!quiet) {
      std::cerr << "graph cache: " << stats.misses << " built, " << stats.hits
                << " reused\n";
    }

    std::size_t failed = 0;
    for (const auto& row : rows) {
      if (!row.passed()) ++failed;
    }
    if (failed > 0) {
      std::cerr << "nas_run: " << failed << "/" << rows.size()
                << " scenarios failed\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nas_run: error: " << e.what() << "\n";
    return 2;
  }
}
