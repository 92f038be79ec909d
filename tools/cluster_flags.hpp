// The flags nas_serve and nas_served share: where the serving cluster comes
// from (--load snapshots, or a graph and schedule to build the spanner
// from) and how it is sharded and run (--shards --partition --cache-budget
// --threads, plus the --snapshot-format guard).
//
//   util::Flags flags(argc, argv);
//   const tools::ClusterFlags cluster_flags(flags);  // before handle_help
//   ...the tool's own flags...
//   if (flags.handle_help("...")) return 0;
//   flags.reject_unknown();
//   serve::ShardedCluster cluster = cluster_flags.make_cluster();
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "serve/cluster.hpp"
#include "util/flags.hpp"

namespace nas::tools {

class ClusterFlags {
 public:
  /// Reads every shared flag, registering its --help line.  Throws
  /// std::invalid_argument when a count lies outside its range.
  explicit ClusterFlags(const util::Flags& flags);

  /// Checks --mode and --snapshot-format (and the --load files against
  /// it), then loads the cluster from the snapshots or builds the spanner
  /// and shards it.  Call after Flags::reject_unknown(), so a mistyped flag
  /// fails before any work runs.
  [[nodiscard]] serve::ShardedCluster make_cluster() const;

  /// --threads: the pool slots each serve() call spreads its shards over.
  [[nodiscard]] unsigned threads() const { return threads_; }

 private:
  std::string load_spec_;
  std::string family_;
  graph::Vertex n_ = 0;
  std::uint64_t seed_ = 0;
  double eps_ = 0;
  int kappa_ = 0;
  double rho_ = 0;
  std::string mode_;
  serve::ClusterOptions options_;
  std::string snapshot_format_;
  unsigned threads_ = 1;
};

}  // namespace nas::tools
