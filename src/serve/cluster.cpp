#include "serve/cluster.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace nas::serve {

namespace {

// Every shard is a copy of one freshly built (or loaded) oracle: oracle
// copies share the spanner's arrays and its relabelled search graph, so the
// relabel runs once per cluster and only the caches are per-shard.
std::vector<apps::SpannerDistanceOracle> replicate(
    const apps::SpannerDistanceOracle& prototype,
    const ClusterOptions& options) {
  return std::vector<apps::SpannerDistanceOracle>(options.shards, prototype);
}

}  // namespace

ShardedCluster::ShardedCluster(std::vector<apps::SpannerDistanceOracle> shards,
                               const ClusterOptions& options)
    : partitioner_(parse_partition(options.partition), options.shards,
                   shards.empty() ? 0 : shards.front().num_vertices()),
      shards_(std::move(shards)) {
  if (shards_.size() != options.shards) {
    throw std::invalid_argument("ShardedCluster: shard count mismatch");
  }
}

ShardedCluster::ShardedCluster(const graph::Graph& spanner,
                               double multiplicative, double additive,
                               const ClusterOptions& options)
    : ShardedCluster(graph::Csr::from_graph(spanner), multiplicative, additive,
                     options) {}

ShardedCluster::ShardedCluster(graph::Csr spanner, double multiplicative,
                               double additive, const ClusterOptions& options)
    : ShardedCluster(
          replicate(apps::SpannerDistanceOracle(
                        std::move(spanner), multiplicative, additive,
                        {.cache_budget_bytes =
                             options.shard_cache_budget_bytes}),
                    options),
          options) {}

ShardedCluster ShardedCluster::from_snapshot_files(
    const std::vector<std::string>& paths, const ClusterOptions& options) {
  if (paths.empty()) {
    throw std::runtime_error(
        "ShardedCluster: need at least one snapshot path");
  }
  if (paths.size() != 1 && paths.size() != options.shards) {
    throw std::runtime_error(
        "ShardedCluster: pass one snapshot for every shard (got " +
        std::to_string(paths.size()) + " paths for " +
        std::to_string(options.shards) + " shards) or one to replicate");
  }
  const apps::OracleOptions oracle_options{
      .cache_budget_bytes = options.shard_cache_budget_bytes};

  if (paths.size() == 1) {
    // One snapshot, loaded/mapped and relabelled once: every oracle views
    // the same CSR arrays (for a v2 snapshot that is the mmap handoff — the
    // file is mapped a single time and the mapping is shared across all
    // shards) and the same search graph.
    return ShardedCluster(
        replicate(apps::SpannerDistanceOracle::load_file(paths.front(),
                                                         oracle_options),
                  options),
        options);
  }

  std::vector<apps::SpannerDistanceOracle> loaded;
  loaded.reserve(paths.size());
  for (const auto& path : paths) {
    loaded.push_back(
        apps::SpannerDistanceOracle::load_file(path, oracle_options));
  }
  // Every shard must serve the same structure; %.17g snapshot rendering
  // round-trips doubles exactly, so guarantee agreement is bit-exact, and
  // the edge count catches snapshots from different builds that happen to
  // share the universe and the schedule (a drift guard, not a full
  // edge-set comparison).
  const auto& first = loaded.front();
  for (std::size_t s = 1; s < loaded.size(); ++s) {
    if (loaded[s].num_vertices() != first.num_vertices()) {
      throw std::runtime_error("ShardedCluster: snapshot " + paths[s] +
                               " disagrees on the vertex universe");
    }
    if (loaded[s].spanner_edges() != first.spanner_edges()) {
      throw std::runtime_error("ShardedCluster: snapshot " + paths[s] +
                               " disagrees on the spanner edge count");
    }
    if (loaded[s].multiplicative() != first.multiplicative() ||
        loaded[s].additive() != first.additive()) {
      throw std::runtime_error("ShardedCluster: snapshot " + paths[s] +
                               " disagrees on the guarantee pair");
    }
  }
  return ShardedCluster(std::move(loaded), options);
}

std::vector<std::uint32_t> ShardedCluster::serve(
    std::span<const apps::Query> batch, unsigned threads, ClusterStats* stats) {
  const util::Timer timer;
  const Router router(partitioner_);
  const auto plan = router.plan(batch);
  const std::size_t shard_count = shards_.size();

  // Each ThreadPool slot owns a contiguous block of the non-empty shards and
  // touches only those oracles, answer slots, and stats slots, so the
  // results are independent of the slot count.  Empty shards are skipped
  // (their cache state stays untouched).  When the b busy shards are fewer
  // than the T resolved slots, each runs on its own slot and hands its
  // batch_query floor(T/b) slots; answers, caches and counters do not
  // depend on a batch's thread count either.
  std::vector<std::size_t> busy;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (!plan.queries[s].empty()) busy.push_back(s);
  }
  const unsigned slots = util::ThreadPool::resolve(
      threads, std::numeric_limits<std::size_t>::max());
  const unsigned shard_threads =
      busy.empty() || busy.size() >= slots
          ? 1
          : slots / static_cast<unsigned>(busy.size());
  std::vector<std::vector<std::uint32_t>> shard_answers(shard_count);
  std::vector<apps::BatchStats> shard_stats(shard_count);
  util::ThreadPool::run_sharded(
      busy.size(), slots, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t s = busy[i];
          shard_answers[s] = shards_[s].batch_query(
              plan.queries[s], shard_threads, &shard_stats[s]);
        }
      });

  ++metrics_.serve_calls;
  metrics_.batch_requests.record(batch.size());
  metrics_.serve_latency_ms.record(
      static_cast<std::uint64_t>(timer.millis()));

  if (stats != nullptr) {
    *stats = ClusterStats{};
    stats->shards_used = plan.shards_used();
    stats->per_shard.resize(shard_count);
    ShardCounters& totals = *stats;
    for (std::size_t s = 0; s < shard_count; ++s) {
      const apps::BatchStats& b = shard_stats[s];
      stats->per_shard[s] = {.requests = plan.queries[s].size(),
                             .distinct_sources = b.distinct_sources,
                             .cache_hits = b.cache_hits,
                             .bfs_passes = b.bfs_passes,
                             .evictions = b.evictions,
                             .edges_inspected = b.edges_inspected,
                             .row_bytes = b.row_bytes};
      totals += stats->per_shard[s];
    }
  }
  return Router::merge(plan, shard_answers, batch.size());
}

ShardCounters& ShardCounters::operator+=(const ShardCounters& other) {
  requests += other.requests;
  distinct_sources += other.distinct_sources;
  cache_hits += other.cache_hits;
  bfs_passes += other.bfs_passes;
  evictions += other.evictions;
  edges_inspected += other.edges_inspected;
  row_bytes += other.row_bytes;
  return *this;
}

void ShardCounters::fold_into(metrics::Digest* digest) const {
  digest->add(requests);
  digest->add(distinct_sources);
  digest->add(cache_hits);
  digest->add(bfs_passes);
  digest->add(evictions);
  digest->add(edges_inspected);
  digest->add(row_bytes);
}

ClusterStats& ClusterStats::operator+=(const ClusterStats& other) {
  ShardCounters::operator+=(other);
  if (per_shard.size() < other.per_shard.size()) {
    per_shard.resize(other.per_shard.size());
  }
  for (std::size_t s = 0; s < other.per_shard.size(); ++s) {
    per_shard[s] += other.per_shard[s];
  }
  shards_used = 0;
  for (const auto& c : per_shard) {
    if (c.requests > 0) ++shards_used;
  }
  return *this;
}

std::uint64_t ClusterStats::digest() const {
  metrics::Digest d;
  fold_into(&d);
  d.add(shards_used);
  d.add(per_shard.size());
  for (const auto& c : per_shard) c.fold_into(&d);
  return d.value();
}

std::uint64_t ClusterMetrics::work_digest() const {
  metrics::Digest d;
  d.add(serve_calls);
  d.add(batch_requests);
  // serve_latency_ms is wall-clock and deliberately excluded.
  return d.value();
}

util::JsonObject cluster_stats_fields(const ShardedCluster& cluster,
                                      const ClusterStats& stats) {
  util::JsonObject fields{
      {"shards", util::JsonValue::number(
                     static_cast<std::uint64_t>(cluster.num_shards()))},
      {"partition", util::JsonValue::str(cluster.partitioner().name())},
      {"shard_cache_capacity",
       util::JsonValue::number(cluster.shard(0).cache_capacity())},
      {"universe", util::JsonValue::number(
                       static_cast<std::uint64_t>(cluster.universe()))},
      {"requests", util::JsonValue::number(stats.requests)},
      {"shards_used", util::JsonValue::number(stats.shards_used)},
      {"distinct_sources", util::JsonValue::number(stats.distinct_sources)},
      {"cache_hits", util::JsonValue::number(stats.cache_hits)},
      {"bfs_passes", util::JsonValue::number(stats.bfs_passes)},
      {"evictions", util::JsonValue::number(stats.evictions)},
      {"edges_inspected", util::JsonValue::number(stats.edges_inspected)},
      {"row_bytes", util::JsonValue::number(stats.row_bytes)},
  };
  // Per-shard request/hit/BFS counters as parallel arrays: deterministic,
  // so a stats diff localizes a routing or cache regression to its shard.
  const auto joined = [&](auto field) {
    std::string list = "[";
    for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
      if (s) list += ",";
      list += std::to_string(field(stats.per_shard[s]));
    }
    return list + "]";
  };
  fields.emplace_back(
      "shard_requests",
      util::JsonValue::literal(
          joined([](const ShardCounters& c) { return c.requests; })));
  fields.emplace_back(
      "shard_bfs", util::JsonValue::literal(joined([](const ShardCounters& c) {
        return c.bfs_passes;
      })));
  fields.emplace_back(
      "shard_hits", util::JsonValue::literal(joined([](const ShardCounters& c) {
        return c.cache_hits;
      })));
  fields.emplace_back("counter_digest", util::JsonValue::hex64(stats.digest()));
  return fields;
}

util::JsonObject cluster_metrics_fields(const ShardedCluster& cluster) {
  const ClusterMetrics& m = cluster.metrics();
  util::JsonObject fields{
      {"shards", util::JsonValue::number(
                     static_cast<std::uint64_t>(cluster.num_shards()))},
      {"serve_calls", util::JsonValue::number(m.serve_calls)},
  };
  metrics::append_histogram_fields(&fields, "batch_requests",
                                   m.batch_requests);
  fields.emplace_back("metrics_digest",
                      util::JsonValue::hex64(m.work_digest()));
  // Wall-clock latency last: timing-only, excluded from metrics_digest.
  metrics::append_histogram_fields(&fields, "serve_latency_ms",
                                   m.serve_latency_ms);
  return fields;
}

}  // namespace nas::serve
