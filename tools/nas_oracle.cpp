// nas_oracle — build or load a spanner-backed distance oracle and write its
// serving snapshot.
//
// The snapshot side of serving: build the spanner from a graph (or load a
// snapshot), then save it, or convert it between the snapshot encodings.
// Serving runs through nas_serve and nas_served, which warm their shards
// from these files; `nas_serve --shards 1` is the single oracle.
//
//   # build from a generated graph, save the serving snapshot
//   ./nas_oracle --family er --n 2000 --seed 1 --eps 0.25 --save oracle.naso
//
//   # migrate a v1 text snapshot to the v2 binary (mmap-able) format
//   ./nas_oracle --load oracle.naso --convert oracle.naso2 --snapshot-format v2
//
// Snapshots are canonical: the same graph and schedule always write the same
// bytes, and a v1 -> v2 -> v1 round trip reproduces the v1 file exactly.
#include <iostream>
#include <string>

#include "apps/distance_oracle.hpp"
#include "core/params.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/flags.hpp"

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

    if (flags.handle_help(
            "nas_oracle — build or load a distance oracle and write its "
            "serving snapshot")) {
      return 0;
    }
    flags.reject_unknown();
    core::Params::check_mode(mode);
    const auto snapshot_format =
        apps::parse_snapshot_format(snapshot_format_name);

    const apps::SpannerDistanceOracle oracle = [&] {
      if (!load_path.empty()) {
        return apps::SpannerDistanceOracle::load_file(load_path);
      }
      const graph::Graph g = family.rfind("file:", 0) == 0
                                 ? graph::read_edge_list_file(family.substr(5))
                                 : graph::make_workload(family, n, seed);
      const auto params =
          core::Params::from_mode(mode, g.num_vertices(), eps, kappa, rho);
      return apps::SpannerDistanceOracle(g, params);
    }();
    std::cerr << "oracle: " << oracle.summary() << ", guarantee d_H <= "
              << oracle.multiplicative() << "*d_G + " << oracle.additive()
              << "\n";

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
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nas_oracle: error: " << e.what() << "\n";
    return 2;
  }
}
