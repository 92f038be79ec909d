#include "run/runner.hpp"

#include <atomic>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "apps/distance_oracle.hpp"
#include "apps/query_workload.hpp"
#include "baselines/en17.hpp"
#include "core/elkin_matar.hpp"
#include "core/params.hpp"
#include "serve/cluster.hpp"
#include "util/temp_file.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace nas::run {

namespace {

/// A collision-free scratch path for one scenario's snapshot round-trip.
/// Exclusive-create semantics (util::create_temp_file) make the kernel the
/// arbiter, so concurrent runner workers, recycled pids, and concurrent nas
/// processes sharing one temp dir can never clobber each other's files —
/// pid+counter names alone only looked unique until two of those raced.
std::string temp_snapshot_path(const std::string& ext) {
  return util::create_temp_file("nas_run_snapshot_", ext);
}

/// RAII unlink so a throwing load still cleans the scratch file up.
struct ScopedRemove {
  std::string path;
  ~ScopedRemove() {
    std::error_code ec;
    std::filesystem::remove(path, ec);  // best effort
  }
};

}  // namespace

ResultRow Runner::run_one(const ScenarioSpec& spec, std::size_t index,
                          const RunOptions& options) {
  ResultRow row;
  row.index = index;
  row.spec = spec;
  try {
    ScenarioSpec::check_algo(spec.algo);
    const auto g = cache_.get(spec.family, spec.n, spec.seed,
                              &row.graph_cache_hit);
    row.n = g->num_vertices();
    row.m = g->num_edges();

    const auto params = core::Params::from_mode(
        spec.mode, g->num_vertices(), spec.eps, spec.kappa, spec.rho);

    std::shared_ptr<const graph::Graph> spanner;
    util::Timer build_timer;
    if (spec.algo == "em") {
      auto result = core::build_spanner(
          *g, params,
          {.validate = spec.validate, .cross_check_alg1 = spec.crosscheck});
      row.rounds = result.ledger.rounds();
      row.guarantee_mult = params.stretch_multiplicative();
      row.guarantee_add = params.stretch_additive();
      spanner = std::make_shared<const graph::Graph>(std::move(result.spanner));
    } else if (spec.algo == "en17") {
      const auto algo_seed = spec.algo_seed != 0 ? spec.algo_seed : spec.seed;
      auto result = baselines::build_en17_spanner(*g, params, algo_seed);
      row.rounds = result.ledger.rounds();
      row.guarantee_mult = result.stretch_multiplicative;
      row.guarantee_add = result.stretch_additive;
      spanner = std::make_shared<const graph::Graph>(std::move(result.spanner));
    } else {
      // "identity": spanner = input graph, zero construction cost, trivially
      // (1, 0) stretch.  Isolates verifier throughput (bench/verify_scaling).
      spanner = g;
    }
    row.build_wall_ms = build_timer.millis();
    row.spanner_edges = spanner->num_edges();

    if (spec.verify_mode == "sampled" || spec.verify_mode == "exact") {
      util::Timer verify_timer;
      row.report =
          spec.verify_mode == "exact"
              ? verify::verify_stretch_exact(*g, *spanner, row.guarantee_mult,
                                             row.guarantee_add,
                                             spec.verify_threads)
              : verify::verify_stretch_sampled(
                    *g, *spanner, row.guarantee_mult, row.guarantee_add,
                    spec.verify_sources, spec.verify_seed, spec.verify_threads);
      row.verify_wall_ms = verify_timer.millis();
      row.verified = true;
    } else if (spec.verify_mode != "off") {
      throw std::invalid_argument("unknown verify-mode \"" + spec.verify_mode +
                                  "\" (expected off|sampled|exact)");
    }

    if (spec.workload != "off") {
      // Serving stage: shard the produced spanner (identity rows serve exact
      // distances) across spec.cluster_shards oracles and answer one
      // generated batch.  A snapshot_format other than "none" inserts a
      // save/reload round-trip first: the oracle is written to a scratch
      // file in that format, the cluster is loaded back from it (v2:
      // mmapped), and the batch runs against the loaded copy.  Every
      // recorded field is deterministic at any query-thread count, cache
      // budget, shard count, and snapshot format; only the wall-clock fields
      // are not.
      util::Timer oracle_timer;
      const apps::WorkloadSpec workload_spec{spec.workload, spec.queries,
                                             spec.workload_seed,
                                             spec.zipf_theta};
      const auto requests =
          apps::make_query_workload(spanner->num_vertices(), workload_spec);

      const serve::ClusterOptions cluster_options{
          .shards = spec.cluster_shards,
          .partition = spec.partition,
          .shard_cache_budget_bytes = spec.cache_budget};
      std::optional<serve::ShardedCluster> cluster;
      std::optional<ScopedRemove> scratch;
      if (spec.snapshot_format == "none") {
        cluster.emplace(*spanner, row.guarantee_mult, row.guarantee_add,
                        cluster_options);
      } else {
        const auto format = apps::parse_snapshot_format(spec.snapshot_format);
        scratch.emplace(temp_snapshot_path(
            format == apps::SnapshotFormat::kV2 ? ".naso2" : ".naso"));
        const apps::SpannerDistanceOracle built(
            *spanner, row.guarantee_mult, row.guarantee_add,
            apps::OracleOptions{.cache_budget_bytes = 0});
        built.save_file(scratch->path, format);
        row.snapshot_bytes = std::filesystem::file_size(scratch->path);
        util::Timer warmup_timer;
        cluster.emplace(serve::ShardedCluster::from_snapshot_files(
            {scratch->path}, cluster_options));
        row.snapshot_warmup_ms = warmup_timer.millis();
      }
      const auto answers =
          cluster->serve(requests, spec.query_threads, &row.cluster);
      row.oracle_digest = apps::digest_answers(answers);
      row.served = true;  // only after the stage ran; a throw leaves false
      row.oracle_wall_ms = oracle_timer.millis();
    }

    if (options.keep_graphs) {
      row.graph = g;
      row.spanner = spanner;
    }
  } catch (const std::exception& e) {
    row.ok = false;
    row.error = e.what();
  }
  return row;
}

std::vector<ResultRow> Runner::run(const std::vector<ScenarioSpec>& specs,
                                   const RunOptions& options) {
  std::vector<ResultRow> rows(specs.size());
  if (specs.empty()) return rows;
  const unsigned workers =
      util::ThreadPool::resolve(options.threads, specs.size());

  std::atomic<std::size_t> next{0};
  std::mutex progress_mutex;
  const auto work = [&](unsigned) {
    for (std::size_t i = next.fetch_add(1); i < specs.size();
         i = next.fetch_add(1)) {
      rows[i] = run_one(specs[i], i, options);
      if (options.progress) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        std::cerr << "[" << (i + 1) << "/" << specs.size() << "] "
                  << specs[i].id() << ": "
                  << (rows[i].ok ? (rows[i].passed() ? "ok" : "BOUND VIOLATED")
                                 : "error: " + rows[i].error)
                  << "\n";
      }
    }
  };

  if (workers <= 1) {
    work(0);
  } else {
    util::ThreadPool pool(workers);
    pool.run(workers, work);
  }
  return rows;
}

}  // namespace nas::run
