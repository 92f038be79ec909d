// Experiment F6-F8 — regenerates the paper's stretch argument (Figures 6-8)
// as measurements: the per-distance error profile of the constructed
// spanner.  Figure 8 divides a shortest path into segments of length
// eps^{-i}; the additive error is paid per segment boundary, so measured
// additive error should grow sub-linearly with distance and stay far below
// the worst-case A_ell, while the multiplicative component stays near 1.
//
// Thin wrapper over the scenario runner: the {family} x {eps} matrix is
// expanded and built by run::Runner (keep_graphs retains each spanner);
// this file only does the per-distance bucketing the figures need.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "graph/bfs.hpp"
#include "run/runner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace nas;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  run::ScenarioMatrix matrix;
  matrix.families = {"torus", "grid"};
  matrix.epss = {0.5, 0.25};
  matrix.seeds = {23};
  matrix.ns = {util::Flags::in_range<graph::Vertex>(
      "n", flags.integer("n", 900, "target vertex count"))};
  matrix.kappas = {
      util::Flags::in_range<int>("kappa", flags.integer("kappa", 3, "kappa"))};
  matrix.rhos = {flags.real("rho", 0.4, "rho")};
  const std::string csv_path = flags.str("csv", "", "CSV output path");
  const auto run_threads = util::Flags::in_range<unsigned>(
      "run-threads",
      flags.integer("run-threads", 1, "concurrent scenarios, 0 = all cores"));
  if (flags.handle_help(
          "figures_stretch — F6-F8: per-distance stretch decomposition")) {
    return 0;
  }
  flags.reject_unknown();

  bench::banner("F6-F8", "stretch decomposition by distance (Figures 6-8)");
  util::CsvWriter csv(csv_path, {"family", "eps", "dG_bucket", "pairs",
                                 "max_add", "mean_add", "max_mult"});

  run::Runner runner;
  run::RunOptions run_options;
  run_options.threads = run_threads;
  run_options.keep_graphs = true;
  auto rows = runner.run(matrix.expand(), run_options);

  // Matrix order is family-major (families outermost, eps innermost), which
  // is exactly the original per-family presentation order.
  std::string last_family;
  for (auto& row : rows) {
    if (!row.ok) {
      std::cout << row.spec.id() << ": error: " << row.error << "\n";
      return 1;
    }
    const graph::Graph& g = *row.graph;
    const graph::Graph& h = *row.spanner;
    if (row.spec.family != last_family) {
      if (!last_family.empty()) std::cout << "\n";
      std::cout << "workload: " << row.spec.family << " " << g.summary()
                << " (large diameter => long shortest paths)\n";
      last_family = row.spec.family;
    }

    // Bucket pairs by d_G and record the error profile.
    struct Bucket {
      std::uint64_t pairs = 0, max_add = 0, sum_add = 0;
      double max_mult = 1.0;
    };
    std::map<std::uint32_t, Bucket> buckets;  // key: dG rounded to bucket
    for (graph::Vertex s = 0; s < g.num_vertices();
         s += std::max<graph::Vertex>(1, g.num_vertices() / 64)) {
      const auto dg = graph::bfs(g, s);
      const auto dh = graph::bfs(h, s);
      for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
        if (v == s || dg.dist[v] == graph::kInfDist) continue;
        const std::uint32_t bucket = 1u << (31 - __builtin_clz(dg.dist[v]));
        auto& b = buckets[bucket];
        ++b.pairs;
        const std::uint64_t add = dh.dist[v] - dg.dist[v];
        b.max_add = std::max(b.max_add, add);
        b.sum_add += add;
        b.max_mult = std::max(
            b.max_mult, static_cast<double>(dh.dist[v]) / dg.dist[v]);
      }
    }

    std::cout << "  eps=" << row.spec.eps << "  guarantee: d_H <= "
              << row.guarantee_mult << "*d_G + " << row.guarantee_add
              << "   |H|=" << h.num_edges() << "\n";
    util::Table t({"d_G in", "pairs", "max additive", "mean additive",
                   "max multiplicative"});
    for (const auto& [bucket, b] : buckets) {
      // Assemble via += (GCC 12's -Wrestrict false positive PR105651).
      std::string range = "[";
      range += std::to_string(bucket);
      range += ",";
      range += std::to_string(2 * bucket);
      range += ")";
      t.add_row({range, std::to_string(b.pairs), std::to_string(b.max_add),
                 util::Table::num(static_cast<double>(b.sum_add) /
                                  static_cast<double>(b.pairs)),
                 util::Table::num(b.max_mult)});
      csv.row({row.spec.family, util::Table::num(row.spec.eps, 3),
               std::to_string(bucket), std::to_string(b.pairs),
               std::to_string(b.max_add),
               util::Table::num(static_cast<double>(b.sum_add) / b.pairs, 3),
               util::Table::num(b.max_mult, 4)});
    }
    t.print(std::cout);

    // Figure-8 shape check: the multiplicative component decays towards 1
    // on the longest distances (the additive term is a constant, so
    // dH/dG -> 1 as dG grows) — the defining property of near-additive
    // spanners the paper's introduction emphasizes.
    if (buckets.size() >= 2) {
      const auto first = buckets.begin()->second.max_mult;
      const auto last = buckets.rbegin()->second.max_mult;
      std::cout << "  max mult on short distances " << first
                << "  vs on longest " << last << "  -> "
                << (last <= first + 1e-9 ? "decays (near-additive shape ok)"
                                         : "no decay (UNEXPECTED)")
                << "\n";
    }
    // Done with this row's retained graphs; release the spanner now instead
    // of holding every scenario's copy through the whole bucketing pass.
    row.spanner.reset();
    row.graph.reset();
  }
  std::cout << "\n";
  return 0;
}
