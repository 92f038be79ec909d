// Experiment V1 — verification pipeline scaling: wall-clock of the
// source-sharded stretch verifier vs worker threads on one fixed graph.
//
// The stretch verifier is the dominant cost of every validated run (n
// searches of G and n of H for the exact oracle), so this bench tracks the
// speedup of the sharded path over the serial baseline and re-checks, at
// every thread count, that the merged StretchReport is bit-identical to
// the serial one (ctest runs this as verify_scaling_identity).  The
// verifier's work is set by the graphs' shape, not by which pairs the
// spanner stretches: one BFS of H per source, and over G one multi-source
// pass per group of 64 sources on dense graphs (average degree >= 5,
// n <= 65535) or one BFS per source otherwise, with the groups, not the
// sources, sharded across workers.  So the "identity" algorithm (H = G)
// keeps the bench about verifier throughput only.
//
//   ./verify_scaling [--family er] [--n 50000] [--seed 1]
//       [--sources 0]            # 0 = exact (all n sources), k = sampled
//       [--threads 1,2,4,8]      # comma-separated worker counts; first is
//                                # the speedup baseline
//       [--json BENCH_verify.json]  # unified rows + timing + speedup extras
//       [--csv out.csv]
//
// Thin wrapper over the scenario runner: the thread sweep is a vector of
// specs differing only in verify_threads (the graph is built once through
// the GraphCache), executed sequentially so the wall-clock per row is
// honest; speedup and bit-identity are derived from the rows afterwards.
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/csr.hpp"
#include "graph/multi_source_bfs.hpp"
#include "run/runner.hpp"
#include "run/sinks.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "verify/stretch.hpp"

using namespace nas;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  run::ScenarioSpec base;
  base.family = flags.str("family", "er", "workload family");
  base.n = util::Flags::in_range<graph::Vertex>(
      "n", flags.integer("n", 50000, "target vertex count"));
  base.seed = util::Flags::in_range<std::uint64_t>(
      "seed", flags.integer("seed", 1, "graph generator seed"));
  const auto sources = util::Flags::in_range<std::uint32_t>(
      "sources", flags.integer("sources", 0,
                               "BFS sources: 0 = exact (all n), k = sampled"));
  const std::string thread_spec =
      flags.str("threads", "1,2,4,8",
                "comma-separated verifier worker counts; first = baseline");
  const std::string json_path =
      flags.str("json", "BENCH_verify.json", "perf JSON output path");
  const std::string csv_path = flags.str("csv", "", "CSV output path");
  if (flags.handle_help(
          "verify_scaling — experiment V1: verifier wall-clock vs threads")) {
    return 0;
  }
  flags.reject_unknown();

  base.algo = "identity";
  base.verify_mode = sources == 0 ? "exact" : "sampled";
  base.verify_sources = sources;

  std::vector<unsigned> thread_list;
  for (const auto& item : run::split_list(thread_spec)) {
    thread_list.push_back(util::Flags::in_range<unsigned>(
        "threads", util::Flags::parse_integer("threads", item)));
  }
  if (thread_list.empty()) {
    std::cerr << "error: empty --threads list\n";
    return 2;
  }

  bench::banner("V1", "verification pipeline scaling: wall-clock vs threads");
  run::Runner runner;
  const auto g = runner.cache().get(base.family, base.n, base.seed);
  const std::uint32_t num_sources = sources == 0 ? g->num_vertices() : sources;
  std::cout << "family=" << base.family << " " << g->summary()
            << " mode=" << base.verify_mode << " (" << num_sources
            << " BFS sources)\n\n";

  // Resolve each requested count the way the verifier itself will: 0 = all
  // cores, clamped to its work units, which are the lane groups where G is
  // searched 64 sources per pass and the sources elsewhere.  So the table,
  // efficiency column, and JSON rows record the worker count actually used.
  constexpr std::size_t kLanes = graph::MultiSourceBfs::kMaxLanes;
  const std::size_t work_units =
      verify::lanes_pay(graph::Csr::from_graph(*g))
          ? (num_sources + kLanes - 1) / kLanes
          : num_sources;
  std::vector<run::ScenarioSpec> specs;
  for (const unsigned threads : thread_list) {
    auto spec = base;
    spec.verify_threads = util::ThreadPool::resolve(threads, work_units);
    specs.push_back(spec);
  }

  // Sequential execution (runner threads = 1): each row's verify_wall_ms
  // must not share cores with another scenario.
  const auto rows = runner.run(specs);

  util::Table t({"threads", "wall ms", "speedup", "efficiency %", "identical"});
  std::vector<double> speedups;
  std::vector<bool> identicals;
  bool all_ok = true, all_identical = true;
  const double baseline_ms = rows.front().verify_wall_ms;
  for (const auto& row : rows) {
    if (!row.ok) {
      std::cerr << "error: " << row.error << "\n";
      return 2;
    }
    const bool identical =
        verify::bit_identical(row.report, rows.front().report);
    const double speedup =
        row.verify_wall_ms > 0.0 ? baseline_ms / row.verify_wall_ms : 0.0;
    speedups.push_back(speedup);
    identicals.push_back(identical);
    all_identical = all_identical && identical;
    all_ok = all_ok && row.passed();
    t.add_row({std::to_string(row.spec.verify_threads),
               util::Table::num(row.verify_wall_ms, 1),
               util::Table::num(speedup),
               util::Table::num(100.0 * speedup / row.spec.verify_threads),
               identical ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\n" << rows.front().report.pairs_checked
            << " pairs checked per run; baseline is the first --threads entry ("
            << rows.front().spec.verify_threads << ").\n";
  if (!all_identical) {
    std::cout << "ERROR: a sharded report diverged from the baseline.\n";
  }

  // Perf-trajectory artifact: unified rows + wall clock + derived columns.
  run::SinkOptions sink_options;
  sink_options.timing = true;
  sink_options.extra = [&](const run::ResultRow& row) {
    return util::JsonObject{
        {"verify_threads",
         util::JsonValue::number(
             static_cast<std::uint64_t>(row.spec.verify_threads))},
        {"speedup", util::JsonValue::literal(
                        run::format_real(speedups[row.index], 4))},
        {"identical_to_baseline",
         util::JsonValue::boolean(identicals[row.index])},
    };
  };
  if (!json_path.empty()) {
    run::write_json(rows, json_path, sink_options);
    std::cout << "wrote " << rows.size() << " rows to " << json_path << "\n";
  }
  if (!csv_path.empty()) run::write_csv(rows, csv_path, sink_options);

  return all_identical && all_ok ? 0 : 1;
}
