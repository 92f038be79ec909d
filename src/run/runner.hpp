// Scenario execution engine.
//
// `Runner::run` executes a vector of ScenarioSpecs across util::ThreadPool
// workers and returns one ResultRow per spec, **in spec order**.  Every row
// is a pure function of its spec (graph builds are deterministic, the
// construction is deterministic, and the verifier's report is bit-identical
// at any shard count), and rows are stored by spec index, so the returned
// vector — and therefore the JSON/CSV a sink writes from it — is
// bit-identical at any worker count.  Wall-clock fields are the one
// exception and are excluded from the sinks unless timing output is
// explicitly requested.
//
// Scenario failures (unknown family, invalid parameter combination, ...) do
// not abort the batch: the row carries `ok = false` and the error text, and
// the remaining scenarios still run.
#pragma once

#include <memory>
#include <vector>

#include "run/graph_cache.hpp"
#include "run/scenario.hpp"
#include "serve/cluster.hpp"
#include "verify/stretch.hpp"

namespace nas::run {

struct ResultRow {
  std::size_t index = 0;  ///< position in the spec vector
  ScenarioSpec spec;

  bool ok = true;     ///< scenario executed without throwing
  std::string error;  ///< exception text when !ok

  // Input graph actually used (after largest-component extraction).
  graph::Vertex n = 0;
  std::uint64_t m = 0;
  bool graph_cache_hit = false;

  // Construction results.
  std::uint64_t spanner_edges = 0;
  std::uint64_t rounds = 0;         ///< simulated CONGEST rounds
  double guarantee_mult = 1.0;      ///< proven stretch d_H <= M*d_G + A
  double guarantee_add = 0.0;

  // Verification results (valid iff `verified`).
  bool verified = false;
  verify::StretchReport report;

  // Serving results (valid iff `served`; spec.workload != "off").  The
  // batch runs through a serve::ShardedCluster of spec.cluster_shards
  // oracles (one shard is one oracle).  `oracle_digest` is
  // apps::digest_answers over its answers — a pure function of the spec, so
  // sink byte-identity across query-thread counts, cache budgets and shard
  // counts covers the served answers too — and `cluster` holds the batch's
  // counters, summed over shards and per shard.
  bool served = false;
  std::uint64_t oracle_digest = 0;
  serve::ClusterStats cluster;
  /// Snapshot round-trip results (spec.snapshot_format != "none"): the
  /// on-disk size of the saved snapshot.  Deterministic — v1 is canonical
  /// text, v2 a fixed-layout binary image — so the sinks always emit it.
  std::uint64_t snapshot_bytes = 0;

  // Wall clock — nondeterministic; sinks emit these only on request.
  double build_wall_ms = 0.0;
  double verify_wall_ms = 0.0;
  double oracle_wall_ms = 0.0;  ///< workload generation + batch answering
  double snapshot_warmup_ms = 0.0;  ///< snapshot reload (v2: mmap) time

  // Retained only when RunOptions::keep_graphs (wrappers that post-process
  // the actual spanner, e.g. per-distance error profiles or edge-list dumps).
  std::shared_ptr<const graph::Graph> graph;
  std::shared_ptr<const graph::Graph> spanner;

  /// The row's overall verdict: executed cleanly and, if verification ran,
  /// the stretch bound held.
  [[nodiscard]] bool passed() const {
    return ok && (!verified || report.bound_ok);
  }
};

struct RunOptions {
  unsigned threads = 1;      ///< Runner workers; 0 = hardware concurrency
  bool keep_graphs = false;  ///< retain graph/spanner pointers on each row
  bool progress = false;     ///< per-scenario completion lines on stderr
};

class Runner {
 public:
  /// Executes every spec and returns rows in spec order (see file comment
  /// for the determinism contract).
  [[nodiscard]] std::vector<ResultRow> run(const std::vector<ScenarioSpec>& specs,
                                           const RunOptions& options = {});

  /// Executes one spec against the shared cache; never throws (failures are
  /// recorded on the row).
  [[nodiscard]] ResultRow run_one(const ScenarioSpec& spec, std::size_t index,
                                  const RunOptions& options);

  /// The graph cache shared by all scenarios this runner executed.
  [[nodiscard]] GraphCache& cache() { return cache_; }

 private:
  GraphCache cache_;
};

}  // namespace nas::run
