// nas_oracle — build, snapshot, and serve a spanner-backed distance oracle.
//
// The serving-side counterpart to nas_run: where nas_run sweeps construction
// experiments, nas_oracle operates one oracle — build it from a graph (or
// load a snapshot), optionally save the snapshot, then answer a batch of
// queries from a file or a generated workload.
//
//   # build from a generated graph, save the serving snapshot
//   ./nas_oracle --family er --n 2000 --seed 1 --eps 0.25 --save oracle.naso
//
//   # migrate a v1 text snapshot to the v2 binary (mmap-able) format
//   ./nas_oracle --load oracle.naso --convert oracle.naso2 --snapshot-format v2
//
//   # serve a zipfian heavy-traffic batch from the snapshot, 8 shards
//   ./nas_oracle --load oracle.naso --workload zipf --queries 20000
//                --query-threads 8 --cache-budget 16777216 --answers out.txt
//
//   # answer an explicit query file ("u v" lines, '#' comments)
//   ./nas_oracle --load oracle.naso --query-file pairs.txt --answers out.txt
//
// The answers file has one "u v d" line per request in request order (d is
// "inf" for disconnected pairs) and is byte-identical at every
// --query-threads value and every --cache-budget — that invariant is CI's
// cmp gate over this binary, and the nas_oracle_vs_nas_serve ctest compares
// it with nas_serve's answers.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "apps/query_workload.hpp"
#include "core/params.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "run/scenario.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace nas;

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);

    // Oracle source: a snapshot, or a graph + schedule to build from.
    const std::string load_path =
        flags.str("load", "", "load a serving snapshot instead of building");
    const std::string family = flags.str(
        "family", "er", "graph family (or file:<path> for an edge list)");
    const auto n = util::Flags::in_range<graph::Vertex>(
        "n",
        flags.integer("n", 1024, "target vertex count (generated families)"));
    const auto seed = util::Flags::in_range<std::uint64_t>(
        "seed", flags.integer("seed", 1, "graph generator seed"));
    const double eps = flags.real("eps", 0.25, "schedule epsilon");
    const int kappa = util::Flags::in_range<int>(
        "kappa", flags.integer("kappa", 3, "schedule kappa"));
    const double rho = flags.real("rho", 0.4, "schedule rho");
    const std::string mode =
        flags.str("mode", "practical", "schedule mode: practical|paper");
    const std::string save_path =
        flags.str("save", "", "write the serving snapshot to this path");
    const std::string convert_path = flags.str(
        "convert", "",
        "write the loaded/built oracle as a fresh snapshot to this path "
        "(migration between --snapshot-format encodings)");
    const std::string snapshot_format_name = flags.str(
        "snapshot-format", "v1",
        "encoding for --save/--convert: v1 (text) | v2 (binary, mmap-able); "
        "--load auto-detects");

    // Serving configuration.  Negative values would wrap to huge unsigned
    // ones (an accidentally unbounded cache), so they are rejected here.
    const auto cache_budget = util::Flags::in_range<std::uint64_t>(
        "cache-budget", flags.integer("cache-budget", 64 << 20,
                                      "source-cache budget in bytes, 0 = off"));
    const auto query_threads = util::Flags::in_range<unsigned>(
        "query-threads", flags.integer("query-threads", 1,
                                       "batch-query shards, 0 = all cores"));

    // Requests: an explicit file, or a generated workload.
    const std::string query_file =
        flags.str("query-file", "", "answer 'u v' request lines from this file");
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
    const std::string stats_path =
        flags.str("stats-json", "", "write serving stats JSON to this file");

    if (flags.handle_help(
            "nas_oracle — build/save/load a distance oracle and serve query "
            "batches")) {
      return 0;
    }
    flags.reject_unknown();
    core::Params::check_mode(mode);
    const auto snapshot_format =
        apps::parse_snapshot_format(snapshot_format_name);

    const apps::OracleOptions oracle_options{
        .cache_budget_bytes = cache_budget};
    util::Timer build_timer;
    apps::SpannerDistanceOracle oracle = [&] {
      if (!load_path.empty()) {
        return apps::SpannerDistanceOracle::load_file(load_path,
                                                      oracle_options);
      }
      const graph::Graph g = family.rfind("file:", 0) == 0
                                 ? graph::read_edge_list_file(family.substr(5))
                                 : graph::make_workload(family, n, seed);
      const auto params =
          core::Params::from_mode(mode, g.num_vertices(), eps, kappa, rho);
      return apps::SpannerDistanceOracle(g, params, oracle_options);
    }();
    const double build_ms = build_timer.millis();
    std::cerr << "oracle: " << oracle.summary() << ", guarantee d_H <= "
              << oracle.multiplicative() << "*d_G + " << oracle.additive()
              << ", cache capacity " << oracle.cache_capacity()
              << " sources\n";

    if (!save_path.empty()) {
      oracle.save_file(save_path, snapshot_format);
      std::cerr << "saved " << apps::snapshot_format_name(snapshot_format)
                << " snapshot to " << save_path << "\n";
    }
    if (!convert_path.empty()) {
      oracle.save_file(convert_path, snapshot_format);
      std::cerr << "converted snapshot to "
                << apps::snapshot_format_name(snapshot_format) << " at "
                << convert_path << "\n";
    }

    std::vector<apps::Query> queries;
    if (!query_file.empty()) {
      queries = apps::read_query_file(query_file);
    } else if (!workload.empty()) {
      queries = apps::make_query_workload(
          oracle.num_vertices(),
          {workload, num_queries, workload_seed, zipf_theta});
    }

    apps::BatchStats stats;
    std::vector<std::uint32_t> answers;
    util::Timer serve_timer;
    if (!queries.empty()) {
      answers = oracle.batch_query(queries, query_threads, &stats);
    }
    const double serve_ms = serve_timer.millis();

    if (!queries.empty()) {
      std::cerr << "served " << stats.queries << " queries ("
                << stats.distinct_sources << " sources, " << stats.cache_hits
                << " cached, " << stats.bfs_passes << " BFS, "
                << stats.evictions << " evictions, " << stats.edges_inspected
                << " edges inspected, " << stats.row_bytes << " row bytes)\n";
    }
    if (!answers_path.empty()) {
      // The file is created even for an empty request set (a query file of
      // only comments, --queries 0) so downstream cmp-style gates compare
      // real output instead of failing on a missing file; asking for
      // answers with no request source at all is a usage error.
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
      const util::JsonObject fields{
          {"spanner_edges",
           util::JsonValue::number(
               static_cast<std::uint64_t>(oracle.spanner_edges()))},
          {"guarantee_mult",
           util::JsonValue::literal(run::format_real(oracle.multiplicative()))},
          {"guarantee_add",
           util::JsonValue::literal(run::format_real(oracle.additive()))},
          {"cache_capacity", util::JsonValue::number(oracle.cache_capacity())},
          {"queries", util::JsonValue::number(stats.queries)},
          {"distinct_sources", util::JsonValue::number(stats.distinct_sources)},
          {"cache_hits", util::JsonValue::number(stats.cache_hits)},
          {"bfs_passes", util::JsonValue::number(stats.bfs_passes)},
          {"evictions", util::JsonValue::number(stats.evictions)},
          {"edges_inspected", util::JsonValue::number(stats.edges_inspected)},
          {"row_bytes", util::JsonValue::number(stats.row_bytes)},
          {"digest", util::JsonValue::hex64(apps::digest_answers(answers))},
          {"build_ms",
           util::JsonValue::literal(run::format_real(build_ms, 4))},
          {"serve_ms",
           util::JsonValue::literal(run::format_real(serve_ms, 4))},
      };
      std::ofstream out(stats_path);
      if (!out) throw std::runtime_error("cannot open stats file " + stats_path);
      out << util::render_json_object(fields) << "\n";
      std::cerr << "wrote stats to " << stats_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nas_oracle: error: " << e.what() << "\n";
    return 2;
  }
}
