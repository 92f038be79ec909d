// nas_serve — build or warm a sharded serving cluster and serve batches.
//
// nas_serve partitions serving across N shard oracles behind a
// deterministic Router (serve::ShardedCluster) — the process shape of a
// partitioned deployment, driven from one binary so tests and CI can
// compare its answers byte-for-byte.  One shard (the default) is one
// oracle: on --threads T its batch searches on T pool slots.
//
//   # build from a generated graph, serve a zipfian batch over 8 shards
//   ./nas_serve --family er --n 2000 --eps 0.25 --shards 8 --partition hash
//               --workload zipf --queries 20000 --answers out.txt
//
//   # warm every shard from a snapshot written by nas_oracle (one path is
//   # shared by every shard; a comma list = one snapshot per shard)
//   ./nas_serve --load oracle.naso --shards 8 --workload zipf --queries 20000
//
//   # answer an explicit query file ("u v" lines, '#' comments)
//   ./nas_serve --load oracle.naso --shards 4 --query-file pairs.txt
//
// The answers file has one "u v d" line per request in request order (d is
// "inf" for disconnected pairs) and is byte-identical at every --shards,
// --partition, --threads, and --cache-budget value, and from a v1 or a v2
// snapshot; the nas_oracle_vs_* ctests cmp these files.  The cluster flags
// (tools/cluster_flags.hpp) are the same as nas_served's.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/query_workload.hpp"
#include "cluster_flags.hpp"
#include "run/scenario.hpp"
#include "serve/cluster.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace nas;

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);
    const tools::ClusterFlags cluster_flags(flags);

    // Requests: an explicit file, or a generated workload.
    const std::string query_file = flags.str(
        "query-file", "", "answer 'u v' request lines from this file");
    const std::string workload = flags.str(
        "workload", "", "generate requests: uniform|zipf (empty = none)");
    const auto num_queries = util::Flags::in_range<std::uint64_t>(
        "queries", flags.integer("queries", 1000, "generated requests"));
    const auto workload_seed = util::Flags::in_range<std::uint64_t>(
        "workload-seed",
        flags.integer("workload-seed", 1, "request-generator seed"));
    const double zipf_theta =
        flags.real("zipf-theta", 0.99, "zipf skew exponent");

    const std::string answers_path =
        flags.str("answers", "", "write 'u v d' answer lines to this file");
    const std::string stats_path = flags.str(
        "stats-json", "", "write cluster + per-shard stats JSON to this file");

    if (flags.handle_help(
            "nas_serve — partition distance-oracle serving across a sharded "
            "cluster")) {
      return 0;
    }
    flags.reject_unknown();

    util::Timer build_timer;
    serve::ShardedCluster cluster = cluster_flags.make_cluster();
    const double build_ms = build_timer.millis();
    std::cerr << "cluster: " << cluster.num_shards() << " shards ("
              << cluster.partitioner().name() << " partition), "
              << cluster.shard(0).summary() << " per shard, "
              << "guarantee d_H <= " << cluster.multiplicative() << "*d_G + "
              << cluster.additive() << ", cache capacity "
              << cluster.shard(0).cache_capacity() << " sources/shard\n";

    std::vector<apps::Query> queries;
    if (!query_file.empty()) {
      queries = apps::read_query_file(query_file);
    } else if (!workload.empty()) {
      queries = apps::make_query_workload(
          cluster.universe(),
          {workload, num_queries, workload_seed, zipf_theta});
    }

    serve::ClusterStats stats;
    std::vector<std::uint32_t> answers;
    util::Timer serve_timer;
    if (!queries.empty()) {
      answers = cluster.serve(queries, cluster_flags.threads(), &stats);
    }
    const double serve_ms = serve_timer.millis();

    if (!queries.empty()) {
      std::cerr << "served " << stats.requests << " requests across "
                << stats.shards_used << "/" << cluster.num_shards()
                << " shards (" << stats.distinct_sources << " sources, "
                << stats.cache_hits << " cached, " << stats.bfs_passes
                << " BFS, " << stats.evictions << " evictions, "
                << stats.edges_inspected << " edges inspected, "
                << stats.row_bytes << " row bytes)\n";
    }
    if (!answers_path.empty()) {
      // The file is created even for an empty request set (a query file of
      // only comments, --queries 0) so cmp gates compare real output; asking
      // for answers with no request source at all is a usage error.
      if (query_file.empty() && workload.empty()) {
        throw std::runtime_error(
            "--answers needs requests: pass --query-file or --workload");
      }
      std::ofstream out(answers_path);
      if (!out) {
        throw std::runtime_error("cannot open answers file " + answers_path);
      }
      apps::write_answers(queries, answers, out);
      std::cerr << "wrote " << queries.size() << " answers to " << answers_path
                << "\n";
    } else if (!queries.empty()) {
      apps::write_answers(queries, answers, std::cout);
    }

    if (!stats_path.empty()) {
      // Shared schema (serve::cluster_stats_fields — the same core
      // nas_served's STATS command emits) plus this tool's one-shot extras.
      util::JsonObject fields = serve::cluster_stats_fields(cluster, stats);
      fields.emplace_back(
          "digest", util::JsonValue::hex64(apps::digest_answers(answers)));
      fields.emplace_back("build_ms",
                          util::JsonValue::literal(run::format_real(build_ms, 4)));
      fields.emplace_back("serve_ms",
                          util::JsonValue::literal(run::format_real(serve_ms, 4)));
      std::ofstream out(stats_path);
      if (!out) {
        throw std::runtime_error("cannot open stats file " + stats_path);
      }
      out << util::render_json_object(fields) << "\n";
      std::cerr << "wrote stats to " << stats_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nas_serve: error: " << e.what() << "\n";
    return 2;
  }
}
