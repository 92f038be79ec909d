// Experiment S1 — the theorem's round complexity O(beta * n^rho / rho):
// measured simulated CONGEST rounds vs n at fixed (eps, kappa, rho).
//
// Shape to check: log-log slope of rounds vs n close to (and no more than a
// hair above) rho — i.e. genuinely low-polynomial, in contrast to [Elk05]'s
// n^{1+1/(2kappa)} which has slope > 1.
//
// Thin wrapper over the scenario runner: the {n} sweep is a matrix, the
// generate/build/verify loop is run::Runner, and this file only renders the
// shape table against the theoretical bound.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/params.hpp"
#include "run/runner.hpp"
#include "run/sinks.hpp"
#include "util/table.hpp"

using namespace nas;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  run::ScenarioMatrix matrix;
  matrix.seeds = {31};
  const double eps = flags.real("eps", 0.25, "epsilon");
  matrix.epss = {eps};
  const int kappa = util::Flags::in_range<int>(
      "kappa", flags.integer("kappa", 3, "kappa"));
  matrix.kappas = {kappa};
  const double rho = flags.real("rho", 0.4, "rho");
  matrix.rhos = {rho};
  const auto max_n = util::Flags::in_range<graph::Vertex>(
      "max_n", flags.integer("max_n", 8192, "largest n (doubling from 512)"));
  const std::string family = flags.str("family", "er", "workload family");
  matrix.families = {family};
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
  if (flags.handle_help("scaling_rounds — experiment S1: rounds vs n")) {
    return 0;
  }
  flags.reject_unknown();

  matrix.ns.clear();
  for (graph::Vertex n = 512; n <= max_n; n *= 2) matrix.ns.push_back(n);

  bench::banner("S1", "round complexity scaling: rounds vs n");
  std::cout << "family=" << family << " eps=" << eps << " kappa=" << kappa
            << " rho=" << rho;
  if (matrix.crosscheck) std::cout << " crosscheck";
  std::cout << "\n\n";

  run::Runner runner;
  run::RunOptions run_options;
  run_options.threads = run_threads;
  const auto rows = runner.run(matrix.expand(), run_options);

  util::Table t({"n", "m", "rounds (simulated)", "beta*n^rho/rho bound",
                 "rounds/n^rho", "slope vs prev", "wall ms"});
  bool failed = false;
  double prev_n = 0, prev_rounds = 0;
  for (const auto& row : rows) {
    if (!row.ok) {
      std::cout << row.spec.id() << ": error: " << row.error << "\n";
      failed = true;
      prev_n = 0;  // the next row's slope would span the gap; print "-"
      continue;
    }
    const auto rounds = static_cast<double>(row.rounds);
    const double bound =
        core::Params::practical(row.n, eps, kappa, rho).beta_paper() *
        std::pow(static_cast<double>(row.n), rho) / rho;
    const double slope =
        prev_n > 0 ? bench::loglog_slope(prev_n, prev_rounds, row.n, rounds)
                   : 0.0;
    t.add_row({std::to_string(row.n), std::to_string(row.m),
               util::Table::num(row.rounds), util::Table::sci(bound),
               util::Table::num(rounds / std::pow(row.n, rho)),
               prev_n > 0 ? util::Table::num(slope) : "-",
               util::Table::num(row.build_wall_ms)});
    if (!bench::print_verify_status(row)) failed = true;
    prev_n = row.n;
    prev_rounds = rounds;
  }
  t.print(std::cout);

  if (!csv_path.empty()) run::write_csv(rows, csv_path);
  if (!json_path.empty()) run::write_json(rows, json_path);

  std::cout << "\nshape check: the slope column should sit near rho=" << rho
            << " (the schedule's n^rho deg caps and ruling-set n^{1/c} factor\n"
            << "dominate), far below the [Elk05] slope 1+1/(2k)="
            << 1.0 + 1.0 / (2 * kappa) << ".\n";
  return failed ? 1 : 0;
}
