// Experiment C1 — sharded serving-cluster throughput: batch wall-clock vs
// shard count, partitioner, and pool slots on one fixed workload.
//
// The cluster is the repo's partitioned-deployment story: the same batch
// nas_oracle serves through one oracle, routed across N shard oracles with
// private bounded caches.  This bench sweeps the cluster knobs the scenario
// runner exposes — cluster-shards x partition x query-threads — on one
// (family, n, seed, schedule, workload) point, and gates on the serving
// layer's determinism contract: every row's answer digest must equal the
// first row's (shard count 0 = the single-oracle baseline).
//
//   ./cluster_throughput [--family er] [--n 20000] [--seed 1]
//       [--algo em] [--eps 0.25] [--kappa 3] [--rho 0.4]
//       [--workload zipf] [--queries 20000] [--workload-seed 1]
//       [--zipf-theta 0.99] [--cache-budget 67108864]   # per shard
//       [--shards 0,1,2,8]        # 0 = single-oracle baseline row
//       [--partition hash,range]
//       [--threads 1,2]           # pool slots serving the shards
//       [--snapshot-format none,v1,v2]  # warm direct / from saved snapshot
//       [--bfs-kernel auto,topdown,hybrid]  # traversal kernels to sweep
//       [--json BENCH_cluster.json] [--csv out.csv]
//
// Thin wrapper over the scenario runner (specs differ only in the cluster
// axes), executed sequentially so per-row wall-clock is honest.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "run/sinks.hpp"

using namespace nas;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  run::ScenarioSpec base;
  base.family = flags.str("family", "er", "workload family");
  base.n = static_cast<graph::Vertex>(
      flags.integer("n", 20000, "target vertex count"));
  base.seed = static_cast<std::uint64_t>(
      flags.integer("seed", 1, "graph generator seed"));
  base.algo = flags.str("algo", "em", "spanner algorithm: em|en17|identity");
  base.eps = flags.real("eps", 0.25, "schedule epsilon");
  base.kappa = static_cast<int>(flags.integer("kappa", 3, "schedule kappa"));
  base.rho = flags.real("rho", 0.4, "schedule rho");
  base.workload = flags.str("workload", "zipf", "request mix: uniform|zipf");
  base.queries = static_cast<std::uint64_t>(
      flags.integer("queries", 20000, "requests per batch"));
  base.workload_seed = static_cast<std::uint64_t>(
      flags.integer("workload-seed", 1, "request-generator seed"));
  base.zipf_theta = flags.real("zipf-theta", 0.99, "zipf skew exponent");
  base.cache_budget = static_cast<std::uint64_t>(flags.integer(
      "cache-budget", 64 << 20, "per-shard cache budget in bytes"));
  const std::string shard_spec = flags.str(
      "shards", "0,1,2,8",
      "comma-separated shard counts; 0 = single-oracle baseline");
  const std::string partition_spec =
      flags.str("partition", "hash", "comma-separated partitioners: hash|range");
  const std::string thread_spec =
      flags.str("threads", "1,2", "comma-separated pool slots per batch");
  const std::string format_spec = flags.str(
      "snapshot-format", "none",
      "comma-separated warmup paths: none (direct) | v1 | v2 (cluster warmed "
      "from a saved snapshot; warmup time is the shared reload cost)");
  const std::string kernel_spec = flags.str(
      "bfs-kernel", "auto",
      "comma-separated BFS kernels: topdown|hybrid|auto (the digest gate "
      "proves answers are kernel-independent)");
  const std::string json_path =
      flags.str("json", "BENCH_cluster.json", "perf JSON output path");
  const std::string csv_path = flags.str("csv", "", "CSV output path");
  if (flags.handle_help(
          "cluster_throughput — experiment C1: sharded serving cluster "
          "wall-clock vs shards/partition/threads")) {
    return 0;
  }
  flags.reject_unknown();

  std::vector<unsigned> shard_list;
  for (const auto& item : run::split_list(shard_spec)) {
    shard_list.push_back(
        static_cast<unsigned>(util::Flags::parse_integer("shards", item)));
  }
  const auto partition_list = run::split_list(partition_spec);
  std::vector<unsigned> thread_list;
  for (const auto& item : run::split_list(thread_spec)) {
    thread_list.push_back(
        static_cast<unsigned>(util::Flags::parse_integer("threads", item)));
  }
  const auto format_list = run::split_list(format_spec);
  const auto kernel_list = run::split_list(kernel_spec);
  if (shard_list.empty() || partition_list.empty() || thread_list.empty() ||
      format_list.empty() || kernel_list.empty()) {
    std::cerr << "error: empty --shards, --partition, --threads, "
                 "--snapshot-format, or --bfs-kernel list\n";
    return 2;
  }

  bench::banner("C1", "sharded serving cluster: wall-clock vs shards/partition");
  run::Runner runner;
  const auto g = runner.cache().get(base.family, base.n, base.seed);
  std::cout << "family=" << base.family << " " << g->summary()
            << " algo=" << base.algo << " workload=" << base.workload << " ("
            << base.queries << " queries/batch, budget " << base.cache_budget
            << " B/shard)\n\n";

  // Shard-major sweep; a 0-shard row is the single-oracle baseline (the
  // partition axis is meaningless there, so it is pinned to its first value
  // instead of duplicating the row per partitioner).
  std::vector<run::ScenarioSpec> specs;
  for (const auto& kernel : kernel_list) {
    for (const auto& format : format_list) {
      for (const unsigned shards : shard_list) {
        for (const auto& partition : partition_list) {
          if (shards == 0 && partition != partition_list.front()) continue;
          for (const unsigned threads : thread_list) {
            auto spec = base;
            spec.bfs_kernel = kernel;
            spec.snapshot_format = format;
            spec.cluster_shards = shards;
            spec.partition = partition;
            spec.query_threads = threads;
            specs.push_back(spec);
          }
        }
      }
    }
  }

  // Sequential execution: per-row serving wall-clock must not share cores.
  const auto rows = runner.run(specs);

  util::Table t({"kernel", "format", "shards", "partition", "slots", "used",
                 "warmup ms", "serve ms", "kqueries/s", "BFS", "hits", "evict",
                 "digest ok"});
  bool all_ok = true, all_identical = true;
  std::vector<double> kqps;
  std::vector<bool> identicals;
  const auto digest0 = rows.front().oracle_digest;
  for (const auto& row : rows) {
    if (!row.ok) {
      std::cerr << "error: " << row.error << "\n";
      return 2;
    }
    const bool identical = row.oracle_digest == digest0;
    const double rate =
        row.oracle_wall_ms > 0.0
            ? static_cast<double>(row.oracle_queries) / row.oracle_wall_ms
            : 0.0;
    kqps.push_back(rate);
    identicals.push_back(identical);
    all_identical = all_identical && identical;
    all_ok = all_ok && row.passed();
    const bool cluster_row = row.spec.cluster_shards != 0;
    t.add_row({row.spec.bfs_kernel, row.spec.snapshot_format,
               std::to_string(row.spec.cluster_shards),
               cluster_row ? row.spec.partition : "-",
               std::to_string(row.spec.query_threads),
               std::to_string(row.cluster_shards_used),
               util::Table::num(row.snapshot_warmup_ms, 2),
               util::Table::num(row.oracle_wall_ms, 1), util::Table::num(rate),
               std::to_string(row.oracle_bfs_passes),
               std::to_string(row.oracle_cache_hits),
               std::to_string(row.oracle_evictions),
               identical ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\ndigest baseline is the first row ("
            << (rows.front().spec.cluster_shards == 0
                    ? "single oracle"
                    : "a cluster row — pass a leading 0 in --shards for the "
                      "single-oracle cross-check")
            << "); every other row must match it byte-for-byte.\n";
  if (!all_identical) {
    std::cout << "ERROR: an answer digest diverged from the baseline.\n";
  }

  run::SinkOptions sink_options;
  sink_options.timing = true;
  sink_options.extra = [&](const run::ResultRow& row) {
    return util::JsonObject{
        {"kqueries_per_s",
         util::JsonValue::literal(run::format_real(kqps[row.index], 4))},
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
