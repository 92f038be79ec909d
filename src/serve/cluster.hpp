// Sharded distance-oracle serving cluster.
//
// PR 4's serving layer stopped at one DistanceOracle per process — one
// snapshot, one bounded cache, one batch loop.  Memory per node is exactly
// the constraint that motivates partitioned deployments, and the
// linear-size spanner is what makes partitioning viable: every shard can
// afford the whole structure (O(β·n^{1+1/κ}) edges), so only the *cache* —
// the 4·n-bytes-per-source part that actually grows with traffic — needs
// partitioning.  A ShardedCluster is N shard oracles sharing one immutable
// CSR spanner (graph::Csr copies are O(1) views onto the same arrays; for a
// v2 binary snapshot those arrays live in a shared file mapping) and one
// relabelled search graph — every shard is a copy of one oracle, so the
// spanner is relabelled once per cluster — each with its own byte-budgeted
// source cache, fronted by a Router that assigns every request to the
// shard owning its routing key.
//
// Determinism contract (the repo's signature guarantee, extended to the
// cluster): the answer vector returned by `serve` is byte-identical
//   * at every `threads` value (execution units are disjoint shard
//     oracles, and a shard's batch_query is thread-count independent),
//   * at every shard count and partitioner (each answer is d_H(u,v), which
//     no oracle's cache state can change), and
//   * to a single SpannerDistanceOracle::batch_query over the same batch.
// The served counters (requests, cache hits, BFS passes, evictions, edges
// inspected and row bytes per shard, work-metric histogram buckets) are
// pure functions of (partitioner, batch history) — never of thread
// scheduling — so tests and CI compare counters and digests, not
// wall-clock, which is meaningless on shared runners.  The one exception
// is the serve-latency histogram in ClusterMetrics, which is wall-clock by
// definition and therefore excluded from work_digest().
//
// Thread-safety: one serve() at a time per cluster; the concurrency happens
// inside, across disjoint shard oracles.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "metrics/metrics.hpp"
#include "serve/partition.hpp"
#include "serve/router.hpp"
#include "util/json.hpp"

namespace nas::serve {

struct ClusterOptions {
  unsigned shards = 1;
  std::string partition = "hash";  ///< "hash" | "range"
  /// Source-cache budget *per shard* in bytes (each oracle resolves it to a
  /// source count exactly like OracleOptions::cache_budget_bytes).
  std::uint64_t shard_cache_budget_bytes = 64ull << 20;
};

/// The deterministic serving counters, for one shard or summed over many.
/// operator+= and fold_into() are the one place that lists them.
struct ShardCounters {
  std::uint64_t requests = 0;          ///< requests routed here
  std::uint64_t distinct_sources = 0;  ///< deduplicated BFS sources
  std::uint64_t cache_hits = 0;
  std::uint64_t bfs_passes = 0;  ///< uncached sources searched (full/targeted)
  std::uint64_t evictions = 0;
  std::uint64_t edges_inspected = 0;  ///< edges the BFS searches inspected
  std::uint64_t row_bytes = 0;        ///< cached distance rows built, 4·n each

  ShardCounters& operator+=(const ShardCounters& other);
  /// Adds every counter above to `digest`, in declaration order.
  void fold_into(metrics::Digest* digest) const;
};

/// One serve() call's diagnostics: the counters summed over shards (the
/// ShardCounters base) plus the per-shard entries.  Every field is
/// deterministic (see the file comment).
struct ClusterStats : ShardCounters {
  std::uint64_t shards_used = 0;  ///< shards that received >= 1 request
  std::vector<ShardCounters> per_shard;

  /// Accumulates another serve() call's counters (the long-running daemon
  /// sums per-batch stats into lifetime totals).  `shards_used` is
  /// recomputed from the merged per-shard requests, so it stays "shards
  /// that ever received a request", not a sum of per-call counts.
  ClusterStats& operator+=(const ClusterStats& other);

  /// Order-sensitive mix64 digest over the totals, `shards_used`, and every
  /// per-shard entry.  Byte-stable across runs and thread counts, so CI
  /// compares one hex64 word per configuration instead of full dumps.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Lifetime work metrics owned by the cluster, updated serially at the end
/// of every serve() pass.  All fields except `serve_latency_ms` are pure
/// functions of the batch history; `work_digest()` covers exactly those.
struct ClusterMetrics {
  std::uint64_t serve_calls = 0;
  /// Requests per serve() call (pow2 buckets 1..2^16).
  metrics::Histogram batch_requests = metrics::Histogram::pow2(17);
  /// Wall-clock serve() latency in ms (pow2 buckets 1..2^15) — timing-only:
  /// exported for humans, excluded from work_digest() and every CI gate.
  metrics::Histogram serve_latency_ms = metrics::Histogram::pow2(16);

  [[nodiscard]] std::uint64_t work_digest() const;
};

class ShardedCluster {
 public:
  /// Partitions serving of `spanner` (guarantee d_H <= multiplicative·d_G +
  /// additive) across options.shards oracles.  The adjacency is converted
  /// to CSR and relabelled once, and both are shared by every oracle;
  /// per-shard marginal memory is just its cache budget.
  ShardedCluster(const graph::Graph& spanner, double multiplicative,
                 double additive, const ClusterOptions& options = {});

  /// Same, from a CSR view (shared as-is, no conversion or copy).
  ShardedCluster(graph::Csr spanner, double multiplicative, double additive,
                 const ClusterOptions& options = {});

  /// Warm-starts every shard from one NAS-ORACLE snapshot — loaded/mapped
  /// and relabelled ONCE, with all oracles serving the same structure (a v2
  /// snapshot hands each one a view into one shared mmap) — or from
  /// per-shard snapshot paths: `paths` must then have exactly
  /// options.shards entries, and every snapshot must agree on the vertex
  /// universe and the guarantee pair (std::runtime_error names the first
  /// disagreeing shard otherwise).
  /// Formats are auto-detected per file (v1 text or v2 binary).
  [[nodiscard]] static ShardedCluster from_snapshot_files(
      const std::vector<std::string>& paths, const ClusterOptions& options = {});

  /// Routes `batch` to its shards, runs the non-empty shards' sub-batches
  /// across `threads` util::ThreadPool slots (0 = hardware concurrency), and
  /// merges the answers back into batch order.  b busy shards on T >= b
  /// slots run one per slot, each batch_query on floor(T/b) slots of its
  /// own (so one shard searches like an oracle on T threads); otherwise
  /// each slot serves a contiguous block of shards, one batch_query thread
  /// each.  See the file comment for the byte-identity contract.  `stats`,
  /// when non-null, receives the deterministic serving counters.
  [[nodiscard]] std::vector<std::uint32_t> serve(
      std::span<const apps::Query> batch, unsigned threads = 1,
      ClusterStats* stats = nullptr);

  // --- introspection --------------------------------------------------------

  [[nodiscard]] unsigned num_shards() const {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] const Partitioner& partitioner() const { return partitioner_; }
  [[nodiscard]] const apps::SpannerDistanceOracle& shard(unsigned s) const {
    return shards_.at(s);
  }
  [[nodiscard]] double multiplicative() const {
    return shard(0).multiplicative();
  }
  [[nodiscard]] double additive() const { return shard(0).additive(); }
  [[nodiscard]] graph::Vertex universe() const {
    return partitioner_.universe();
  }
  /// Lifetime work metrics.  Read from the thread that calls serve() (or
  /// after it has quiesced): serve() updates these in place.
  [[nodiscard]] const ClusterMetrics& metrics() const { return metrics_; }

 private:
  ShardedCluster(std::vector<apps::SpannerDistanceOracle> shards,
                 const ClusterOptions& options);

  Partitioner partitioner_;
  std::vector<apps::SpannerDistanceOracle> shards_;
  ClusterMetrics metrics_;
};

/// The shared stats-JSON schema for cluster serving: configuration (shards,
/// partition, shard_cache_capacity, universe) + the counters in `stats` +
/// per-shard parallel arrays (shard_requests/shard_bfs/shard_hits) +
/// `counter_digest` (hex64 of stats.digest()).  nas_serve appends its
/// one-shot extras (digest, timings) and nas_served appends its connection
/// counters; both share this core so the two tools can never drift on field
/// semantics.
[[nodiscard]] util::JsonObject cluster_stats_fields(
    const ShardedCluster& cluster, const ClusterStats& stats);

/// The METRICS-verb schema: shards, serve_calls, the batch_requests work
/// histogram (as `<name>_le`/`<name>_count`/... fields), `metrics_digest`
/// (hex64 of ClusterMetrics::work_digest()), and the timing-only
/// serve_latency_ms histogram last.  Must be called from the thread that
/// owns serve() (the net bridge worker routes METRICS requests there for
/// exactly this reason).
[[nodiscard]] util::JsonObject cluster_metrics_fields(
    const ShardedCluster& cluster);

}  // namespace nas::serve
