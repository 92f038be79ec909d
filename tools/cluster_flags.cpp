#include "cluster_flags.hpp"

#include <stdexcept>

#include "apps/snapshot.hpp"
#include "core/elkin_matar.hpp"
#include "core/params.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "run/scenario.hpp"

namespace nas::tools {

using util::Flags;

ClusterFlags::ClusterFlags(const Flags& flags) {
  // Cluster source: snapshot path(s), or a graph + schedule to build from.
  load_spec_ = flags.str(
      "load", "",
      "warm shards from snapshot path(s): one path is shared by every shard, "
      "a comma list is one snapshot per shard");
  family_ = flags.str("family", "er",
                      "graph family (or file:<path> for an edge list)");
  n_ = Flags::in_range<graph::Vertex>(
      "n", flags.integer("n", 1024, "target vertex count (generated families)"));
  seed_ = Flags::in_range<std::uint64_t>(
      "seed", flags.integer("seed", 1, "graph generator seed"));
  eps_ = flags.real("eps", 0.25, "schedule epsilon");
  kappa_ = Flags::in_range<int>("kappa",
                                flags.integer("kappa", 3, "schedule kappa"));
  rho_ = flags.real("rho", 0.4, "schedule rho");
  mode_ = flags.str("mode", "practical", "schedule mode: practical|paper");

  // Fail fast on --shards 0: the Partitioner would reject it too, but only
  // after the whole spanner build or snapshot load already ran.
  options_.shards = Flags::in_range<unsigned>(
      "shards", flags.integer("shards", 1, "serving shards (>= 1)"), 1);
  options_.partition =
      flags.str("partition", "hash", "vertex partitioner: hash|range");
  snapshot_format_ = flags.str(
      "snapshot-format", "auto",
      "require --load snapshots to be this format: auto|v1|v2 (auto "
      "accepts either; a mismatch is an error before any load runs)");
  options_.shard_cache_budget_bytes = Flags::in_range<std::uint64_t>(
      "cache-budget",
      flags.integer("cache-budget", 64 << 20,
                    "per-shard cache budget in bytes, 0 = off"));
  threads_ = Flags::in_range<unsigned>(
      "threads",
      flags.integer("threads", 1,
                    "pool slots per batch, split among its busy shards, "
                    "0 = all cores"));
}

serve::ShardedCluster ClusterFlags::make_cluster() const {
  core::Params::check_mode(mode_);
  if (snapshot_format_ != "auto" && snapshot_format_ != "v1" &&
      snapshot_format_ != "v2") {
    throw std::invalid_argument(
        "flag --snapshot-format must be auto|v1|v2, got \"" +
        snapshot_format_ + "\"");
  }
  if (snapshot_format_ != "auto" && !load_spec_.empty()) {
    // Deployment guard: a cluster pinned to one encoding refuses to warm
    // from the other, before any shard loads (cheap magic-byte sniff).
    const auto want = apps::parse_snapshot_format(snapshot_format_);
    for (const auto& path : run::split_list(load_spec_)) {
      const auto have = apps::detect_snapshot_format(path);
      if (have != want) {
        throw std::runtime_error(
            std::string("snapshot ") + path + " is " +
            apps::snapshot_format_name(have) + " but --snapshot-format " +
            snapshot_format_ + " was requested");
      }
    }
  }

  if (!load_spec_.empty()) {
    return serve::ShardedCluster::from_snapshot_files(
        run::split_list(load_spec_), options_);
  }
  const graph::Graph g = family_.rfind("file:", 0) == 0
                             ? graph::read_edge_list_file(family_.substr(5))
                             : graph::make_workload(family_, n_, seed_);
  const auto params =
      core::Params::from_mode(mode_, g.num_vertices(), eps_, kappa_, rho_);
  const auto result = core::build_spanner(g, params, {.validate = false});
  return serve::ShardedCluster(result.spanner, params.stretch_multiplicative(),
                               params.stretch_additive(), options_);
}

}  // namespace nas::tools
