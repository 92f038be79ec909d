// Experiment S2 — the theorem's size bound O(beta * n^{1+1/kappa}):
// measured spanner size vs n, and vs kappa (sparser for larger kappa).
//
// Thin wrapper over the scenario runner: expands {kappa} x {n} into a
// matrix, executes it (optionally across --run-threads workers; the rows
// and sinks are identical at any count), and renders the per-kappa shape
// tables from the unified rows.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "run/runner.hpp"
#include "run/sinks.hpp"
#include "util/table.hpp"

using namespace nas;

namespace {

double normalized_size(const run::ResultRow& row) {
  return static_cast<double>(row.spanner_edges) /
         std::pow(static_cast<double>(row.n), 1.0 + 1.0 / row.spec.kappa);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  run::ScenarioMatrix matrix;
  matrix.seeds = {37};
  matrix.epss = {flags.real("eps", 0.25, "epsilon")};
  const double rho = flags.real("rho", 0.4, "rho");
  matrix.rhos = {rho};
  const auto max_n = util::Flags::in_range<graph::Vertex>(
      "max_n", flags.integer("max_n", 8192, "largest n (doubling from 512)"));
  matrix.families = {flags.str("family", "er_dense", "workload family")};
  const std::string csv_path =
      flags.str("csv", "", "unified CSV rows output path");
  const std::string json_path =
      flags.str("json", "", "unified JSON rows output path");
  matrix.crosscheck = flags.boolean(
      "crosscheck", false, "re-simulate Algorithm 1 on the round engine");
  matrix.verify_sources = util::Flags::in_range<std::uint32_t>(
      "verify",
      flags.integer("verify", 0, "sampled verification sources (0 = off)"));
  matrix.verify_mode = matrix.verify_sources > 0 ? "sampled" : "off";
  matrix.verify_threads = util::Flags::in_range<unsigned>(
      "verify-threads",
      flags.integer("verify-threads", 0, "verifier shards, 0 = all cores"));
  const auto run_threads = util::Flags::in_range<unsigned>(
      "run-threads",
      flags.integer("run-threads", 1, "concurrent scenarios, 0 = all cores"));
  if (flags.handle_help("scaling_size — experiment S2: |H| vs n and kappa")) {
    return 0;
  }
  flags.reject_unknown();

  matrix.kappas.clear();
  for (const int kappa : {3, 4, 8}) {
    if (rho >= 1.0 / kappa && kappa * rho >= 1.0) matrix.kappas.push_back(kappa);
  }
  matrix.ns.clear();
  for (graph::Vertex n = 512; n <= max_n; n *= 2) matrix.ns.push_back(n);

  bench::banner("S2", "spanner size scaling: |H| vs n and vs kappa");
  run::Runner runner;
  run::RunOptions run_options;
  run_options.threads = run_threads;
  const auto rows = runner.run(matrix.expand(), run_options);

  bool failed = false;
  for (const int kappa : matrix.kappas) {
    std::cout << "kappa=" << kappa << " (target |H| ~ n^{1+1/kappa} = n^"
              << util::Table::num(1.0 + 1.0 / kappa) << ")\n";
    util::Table t({"n", "m", "|H|", "|H|/n^{1+1/k}", "|H|/|E| %",
                   "slope vs prev"});
    double prev_n = 0, prev_edges = 0;
    for (const auto& row : rows) {
      if (row.spec.kappa != kappa) continue;
      if (!row.ok) {
        std::cout << "  " << row.spec.id() << ": error: " << row.error << "\n";
        failed = true;
        prev_n = 0;  // the next row's slope would span the gap; print "-"
        continue;
      }
      const auto edges = static_cast<double>(row.spanner_edges);
      const double slope =
          prev_n > 0 ? bench::loglog_slope(prev_n, prev_edges,
                                           row.n, edges)
                     : 0.0;
      t.add_row({std::to_string(row.n), std::to_string(row.m),
                 std::to_string(row.spanner_edges),
                 util::Table::num(normalized_size(row)),
                 util::Table::num(100.0 * edges /
                                  std::max<std::uint64_t>(row.m, 1)),
                 prev_n > 0 ? util::Table::num(slope) : "-"});
      if (!bench::print_verify_status(row)) failed = true;
      prev_n = row.n;
      prev_edges = edges;
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  run::SinkOptions sink_options;
  sink_options.extra = [](const run::ResultRow& row) {
    // Failed rows have n = 0; 0/0 would render as NaN and corrupt the JSON.
    return util::JsonObject{
        {"normalized",
         row.ok ? util::JsonValue::literal(
                      run::format_real(normalized_size(row), 4))
                : util::JsonValue::literal("null")}};
  };
  if (!csv_path.empty()) run::write_csv(rows, csv_path, sink_options);
  if (!json_path.empty()) run::write_json(rows, json_path, sink_options);

  std::cout << "shape checks: slope stays near (often below) 1+1/kappa and\n"
            << "the normalized column stays O(beta); larger kappa gives\n"
            << "sparser spanners, as the tradeoff requires.\n";
  return failed ? 1 : 0;
}
