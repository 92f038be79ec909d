// Declarative experiment scenarios.
//
// A ScenarioSpec is everything one experiment datapoint needs: the graph
// source (generator family + size + seed, or an edge-list file), the spanner
// algorithm and its parameters, the engine-backed cross-check switch, and
// the verification settings.  A ScenarioMatrix holds one
// list of values per axis and expands to the cross product in a fixed,
// documented order, so every consumer — the nas_run CLI, the benches, the
// tests — agrees on which row is which.
//
// Matrices come from three places and all share the same key names:
//   * flags:          nas_run --family er,grid --n 512,1024 --eps 0.25,0.5
//   * scenario file:  one `key = value[, value...]` per line, '#' comments
//   * code:           fill the fields directly (the benches do this)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/flags.hpp"

namespace nas::run {

/// Formats a double the way every scenario id and unified sink row does
/// ("%.*g": no trailing zeros, deterministic for identical bit patterns).
[[nodiscard]] std::string format_real(double v, int digits = 6);

/// One experiment datapoint, fully described.
struct ScenarioSpec {
  // Graph source.  `family` is a graph::make_workload family name, or
  // "file:<path>" to read an edge list (then `n` and `seed` are ignored).
  std::string family = "er";
  graph::Vertex n = 1024;
  std::uint64_t seed = 1;

  // Algorithm: "em" (the paper's deterministic construction), "en17"
  // (the randomized Elkin-Neiman baseline), or "identity" (spanner = input;
  // isolates verifier cost).  `algo_seed` seeds randomized algorithms,
  // 0 = reuse the graph seed (so a seed sweep over a fixed graph is
  // expressed as one `seed` with many `algo_seed`s).
  std::string algo = "em";
  std::uint64_t algo_seed = 0;

  // Spanner schedule.
  double eps = 0.25;
  int kappa = 3;
  double rho = 0.4;
  std::string mode = "practical";  ///< "practical" | "paper"

  // Build options (see core::BuildOptions).
  bool crosscheck = false;           ///< re-simulate Algorithm 1 round-by-round
  bool validate = false;             ///< structural lemma validation

  // Stretch verification of the produced spanner.
  std::string verify_mode = "off";   ///< "off" | "sampled" | "exact"
  std::uint32_t verify_sources = 16; ///< sampled mode: BFS source count
  unsigned verify_threads = 1;       ///< verifier shards, 0 = all cores
  std::uint64_t verify_seed = 1;     ///< sampled mode: source-choice seed

  // Distance-oracle serving stage: generate a query workload against the
  // produced spanner and answer it as one batch.  "off" skips the stage
  // entirely.
  std::string workload = "off";           ///< "off" | "uniform" | "zipf"
  std::uint64_t queries = 1000;           ///< requests per batch
  std::uint64_t workload_seed = 1;        ///< request-generator seed
  double zipf_theta = 0.99;               ///< zipf skew exponent
  std::uint64_t cache_budget = 64 << 20;  ///< oracle source-cache bytes
  unsigned query_threads = 1;             ///< serve() slots, 0 = all cores

  // The serving stage runs through a serve::ShardedCluster of
  // `cluster_shards` (>= 1) shard oracles, each with its own `cache_budget`
  // cache, routed by `partition` ("hash" | "range"); one shard is one
  // oracle.  Answers are byte-identical at every shard count and
  // partitioner — the cluster axes only move the counters.
  unsigned cluster_shards = 1;
  std::string partition = "hash";

  // Snapshot round-trip axis: "none" serves straight from the built spanner;
  // "v1"/"v2" save the oracle snapshot in that format, reload it (v2 via
  // mmap), and serve from the loaded structure — measuring warmup cost and
  // proving answers are format-independent.  Ignored when `workload` is off.
  std::string snapshot_format = "none";  ///< "none" | "v1" | "v2"

  /// Compact deterministic identifier, e.g.
  /// "er/n=512/seed=1/em/eps=0.25/kappa=3/rho=0.4"; serving scenarios append
  /// "/w=<workload>/q=<queries>/cb=<cache_budget>/qt=<query_threads>" (and
  /// multi-shard ones "/cs=<cluster_shards>/<partition>", snapshot
  /// round-trips "/sf=<snapshot_format>") so every expansion axis is visible
  /// in the id (rows of a serving sweep stay distinguishable in logs and
  /// grouped sink output).
  [[nodiscard]] std::string id() const;

  /// Throws std::invalid_argument unless `algo` is "em", "en17" or
  /// "identity" (shared by ScenarioMatrix::set and Runner::run_one).
  static void check_algo(const std::string& algo);
};

/// Value lists per scenario axis; `expand()` produces the cross product.
struct ScenarioMatrix {
  std::vector<std::string> families{"er"};
  std::vector<graph::Vertex> ns{1024};
  std::vector<std::uint64_t> seeds{1};
  std::vector<std::string> algos{"em"};
  std::vector<std::uint64_t> algo_seeds{0};
  std::vector<double> epss{0.25};
  std::vector<int> kappas{3};
  std::vector<double> rhos{0.4};
  // Oracle serving axes (sweepable like the schedule parameters).
  std::vector<std::string> workloads{"off"};
  std::vector<std::uint64_t> cache_budgets{64 << 20};
  std::vector<unsigned> query_threads{1};
  // Serving-cluster axes: shard counts (>= 1) and partitioners.
  std::vector<unsigned> cluster_shards{1};
  std::vector<std::string> partitions{"hash"};
  // Snapshot round-trip axis: none|v1|v2 (see ScenarioSpec::snapshot_format).
  std::vector<std::string> snapshot_formats{"none"};

  // Scalar (non-matrix) settings copied into every spec.
  std::string mode = "practical";
  bool crosscheck = false;
  bool validate = false;
  std::string verify_mode = "off";
  std::uint32_t verify_sources = 16;
  unsigned verify_threads = 1;
  std::uint64_t verify_seed = 1;
  std::uint64_t queries = 1000;
  std::uint64_t workload_seed = 1;
  double zipf_theta = 0.99;

  /// The cross product in fixed nesting order — family outermost, then n,
  /// seed, algo, algo_seed, eps, kappa, rho, workload, cache_budget,
  /// query_threads, cluster_shards, partition, snapshot_format innermost.
  /// Axes that cannot change a row take only their first value, so no two
  /// specs are the same scenario: a workload of "off" pins every serving
  /// axis (cache_budget through snapshot_format), and cluster_shards 1 pins
  /// partition (every partitioner routes a one-shard batch alike).
  /// Deterministic: the i-th spec depends only on the axis lists, never on
  /// execution.
  [[nodiscard]] std::vector<ScenarioSpec> expand() const;

  /// Applies one `key = values` assignment (shared by flag and file input).
  /// List-valued keys take comma-separated values.  Throws
  /// std::invalid_argument on unknown keys or unparsable values.
  void set(const std::string& key, const std::string& value);

  /// Overlays every matrix key the caller passed on the command line onto
  /// this matrix (registering --help descriptions for all of them); keys the
  /// caller did not pass keep their current values — so flags can refine a
  /// matrix loaded from a scenario file.
  void apply_flags(const util::Flags& flags);

  /// Reads every matrix key from `flags` onto a default matrix.
  [[nodiscard]] static ScenarioMatrix from_flags(const util::Flags& flags);

  /// Parses a scenario file: `key = value[, value...]` lines, blank lines
  /// and '#' comments ignored.  Throws std::runtime_error with the line
  /// number on malformed input.
  [[nodiscard]] static ScenarioMatrix from_file(const std::string& path);
};

/// Splits "a,b,c" into trimmed non-empty items ("" -> empty vector).
[[nodiscard]] std::vector<std::string> split_list(const std::string& text);

}  // namespace nas::run
