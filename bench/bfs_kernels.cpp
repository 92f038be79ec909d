// Experiment K1 — BFS kernel microbench: edges inspected and wall-clock for
// the top-down, direction-optimizing (hybrid), and auto kernels, and the
// bit-parallel multi-source BFS, on the same graphs, in two vertex orders.
//
// The serving and verification hot paths spend their time in single-source
// BFS over the Csr view (src/graph/bfs_kernel.hpp).  This bench drives the
// kernels directly — no oracle, no spanner — so the traversal cost is
// isolated: per (family, n, order, kernel) it runs the same source set on
// one reused BfsScratch and reports the kernel's own work counters
// (edges_inspected, top-down/bottom-up level split) next to wall-clock.
// `wall_ms` sums the kernel calls alone (each run, or each multi-source
// pass); the identity checks and the line count below run off the clock.
//
//   ./bfs_kernels [--family er,er_dense,ba,grid] [--n 4000,16000] [--seed 1]
//       [--sources 16] [--json BENCH_bfs.json]
//
// Orders: `input` runs the generator's IDs; `bfs` runs the same graph
// relabelled by Csr::relabel_bfs_order, from the same sources renamed —
// the labelling the oracle and the verifier search on.  `lines_touched`
// is the locality counter behind that choice: the distinct 64-byte lines
// of the kernel's 8-byte cell array that each top-down level's neighbor
// checks read, summed over levels and sources.  The bench recomputes it
// from reached() after each run, so the kernel pays nothing for it; rows
// with a bottom-up level report null.
//
// It also runs the targeted search the oracle uses for sources it does not
// cache: the auto run from each source stopped at the next source and the
// one half the list away ("targets" rows); and the multi-source BFS the
// verifier runs over G ("msbfs" rows): the same sources in groups of 64,
// taken in the order of their IDs in the row's order, as the verifier
// takes them in G's BFS order; one graph::MultiSourceBfs pass per group
// (skipped when n is above the 65535 its 16-bit rows hold).
//
// Gates make the run self-checking (nonzero exit on violation):
//   * identity — every kernel's distance array, in either order and mapped
//     back to input IDs, is byte-identical to input-order top-down's for
//     every source (distances are level structure, not traversal order or
//     labelling, so any divergence is a kernel or relabelling bug), and
//     every targeted search's distances, and every msbfs lane's row, equal
//     top-down's;
//   * work — on the ba and er families (hub-heavy / average degree ~8, the
//     shapes direction-optimizing targets) hybrid must inspect no more
//     edges than top-down; and on er, er_dense, ba, grid, geometric and
//     hypercube, auto (what serving and verification run) must inspect no
//     more edges than top-down, so a switch that goes bottom-up on a
//     frontier that is not about to take in the rest of the graph fails.
//     Both hold in each order.  Top-down inspects the same edges in both
//     orders (the sum of the reached degrees);
//   * locality — on geometric, whose IDs are random with respect to
//     position, top-down in the bfs order touches no more lines than in
//     the input order;
//   * targeted work — on every family, each stopped run inspects no more
//     edges than the full auto pass from its source;
//   * msbfs work — on every family, in each order, the msbfs passes
//     inspect no more edges than top-down does from the same sources: a
//     pass scans a vertex's edges once per level that some lane reaches it
//     on, a single-source search once per source that reaches it.
#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/bfs_kernel.hpp"
#include "graph/csr.hpp"
#include "graph/multi_source_bfs.hpp"
#include "run/scenario.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace nas;

namespace {

constexpr std::array<graph::BfsKernel, 3> kKernels = {
    graph::BfsKernel::kTopDown, graph::BfsKernel::kHybrid,
    graph::BfsKernel::kAuto};

/// The work gate: the families on which `kernel` must inspect no more edges
/// than top-down.
bool work_gated(graph::BfsKernel kernel, const std::string& family) {
  const auto in = [&](std::initializer_list<const char*> families) {
    return std::find(families.begin(), families.end(), family) !=
           families.end();
  };
  switch (kernel) {
    case graph::BfsKernel::kHybrid:
      return in({"ba", "er"});
    case graph::BfsKernel::kAuto:
      // Not caveman: there auto inspects about 1.5x top-down's edges (the
      // FOUND line on caveman in CHANGES.md), because a bottom-up level
      // rescans the clique adjacency of every vertex in a cave the
      // frontier has not reached.  caveman runs the identity, locality
      // and targeted-work gates until the switch rule is fixed.
      return in({"er", "er_dense", "ba", "grid", "geometric", "hypercube"});
    case graph::BfsKernel::kTopDown:
      return false;
  }
  return false;
}

/// Deterministic source spread: `count` vertices striding the id space, so
/// every kernel (and every rerun) sees the same sources without an RNG.
std::vector<graph::Vertex> pick_sources(graph::Vertex n, std::uint64_t count) {
  const auto want = static_cast<graph::Vertex>(
      std::min<std::uint64_t>(count, n == 0 ? 0 : n));
  std::vector<graph::Vertex> sources;
  sources.reserve(want);
  const graph::Vertex stride =
      want == 0 ? 1 : std::max<graph::Vertex>(n / want, 1);
  for (graph::Vertex i = 0; i < want; ++i) sources.push_back(i * stride);
  return sources;
}

struct KernelRow {
  std::string family;
  graph::Vertex n = 0;
  std::size_t m = 0;
  std::string order = "input";  ///< "input" | "bfs"
  std::string kernel;           ///< bfs_kernel_name, or "msbfs"
  std::string search = "full";  ///< "full" | "targets"
  graph::BfsKernelStats stats;
  std::uint64_t lines_touched = 0;  ///< meaningful iff has_lines(row)
  double wall_ms = 0.0;
  bool identical = true;
};

/// lines_touched is counted for the single-source rows whose every level
/// ran top-down.
bool has_lines(const KernelRow& row) {
  return row.kernel != "msbfs" && row.stats.bottom_up_levels == 0;
}

void add_stats(graph::BfsKernelStats& total,
               const graph::BfsKernelStats& run) {
  total.edges_inspected += run.edges_inspected;
  total.top_down_levels += run.top_down_levels;
  total.bottom_up_levels += run.bottom_up_levels;
}

/// Counts the cache lines a top-down run's neighbor checks read: level d
/// (d < levels, the levels the run expanded) reads the cell of every
/// neighbor of every level-d vertex, and each distinct 64-byte line of the
/// 8-byte cells counts once per level.  reached() lists the vertices level
/// by level.  `seen` holds one stamp per line, `stamp` the last one used;
/// both carry over between calls so no per-run reset is needed.
class LineCounter {
 public:
  explicit LineCounter(graph::Vertex n) : seen_(n / kCellsPerLine + 1, 0) {}

  std::uint64_t count(const graph::Csr& g, const graph::BfsScratch& scratch,
                      std::uint32_t levels) {
    std::uint64_t lines = 0;
    std::uint32_t level = 0;
    ++stamp_;
    for (const graph::Vertex u : scratch.reached()) {
      const std::uint32_t d = scratch.distance(u);
      if (d >= levels) break;
      if (d != level) {
        level = d;
        ++stamp_;
      }
      for (const graph::Vertex v : g.neighbors(u)) {
        std::uint64_t& line = seen_[v / kCellsPerLine];
        if (line != stamp_) {
          line = stamp_;
          ++lines;
        }
      }
    }
    return lines;
  }

 private:
  static constexpr graph::Vertex kCellsPerLine = 64 / 8;
  std::vector<std::uint64_t> seen_;
  std::uint64_t stamp_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string family_spec = flags.str(
      "family", "er,er_dense,ba,grid", "comma-separated graph families");
  const std::string n_spec =
      flags.str("n", "4000,16000", "comma-separated target vertex counts");
  const auto seed = util::Flags::in_range<std::uint64_t>(
      "seed", flags.integer("seed", 1, "graph generator seed"));
  const auto num_sources = util::Flags::in_range<std::uint64_t>(
      "sources",
      flags.integer("sources", 16, "BFS sources per (family, n) point"));
  const std::string json_path =
      flags.str("json", "BENCH_bfs.json", "perf JSON output path");
  if (flags.handle_help(
          "bfs_kernels — experiment K1: BFS kernel work counters and "
          "wall-clock (topdown vs hybrid vs auto, input vs bfs order)")) {
    return 0;
  }
  flags.reject_unknown();

  const auto family_list = run::split_list(family_spec);
  std::vector<graph::Vertex> n_list;
  for (const auto& item : run::split_list(n_spec)) {
    n_list.push_back(util::Flags::in_range<graph::Vertex>(
        "n", util::Flags::parse_integer("n", item)));
  }
  if (family_list.empty() || n_list.empty()) {
    std::cerr << "error: empty --family or --n list\n";
    return 2;
  }

  bench::banner("K1", "BFS kernels: edges inspected, topdown vs hybrid");

  std::vector<KernelRow> rows;
  bool all_identical = true;
  bool work_gate_ok = true;
  bool order_work_ok = true;
  bool locality_ok = true;
  bool targeted_work_ok = true;
  bool msbfs_work_ok = true;
  for (const auto& family : family_list) {
    for (const auto n : n_list) {
      const auto g = graph::make_workload(family, n, seed);
      const auto input = graph::Csr::from_graph(g);
      const auto relabelled = input.relabel_bfs_order();
      const auto sources = pick_sources(g.num_vertices(), num_sources);
      std::cout << "family=" << family << " " << g.summary() << " ("
                << sources.size() << " sources)\n";

      // Reference distances: one input-order top-down array per source,
      // indexed by input ID; every other kernel and order must reproduce
      // each byte-for-byte once mapped back.
      std::vector<std::vector<std::uint32_t>> reference;
      std::uint64_t input_topdown_edges = 0;
      std::uint64_t input_topdown_lines = 0;
      for (const char* order : {"input", "bfs"}) {
        const bool bfs_order = std::string(order) == "bfs";
        const graph::Csr& csr = bfs_order ? relabelled.csr : input;
        const auto id = [&](graph::Vertex v) {
          return bfs_order ? relabelled.to_new[v] : v;
        };
        const auto new_row = [&](const char* kernel, const char* search) {
          KernelRow row;
          row.family = family;
          row.n = g.num_vertices();
          row.m = g.num_edges();
          row.order = order;
          row.kernel = kernel;
          row.search = search;
          return row;
        };
        LineCounter line_counter(g.num_vertices());
        // The per-source edge counts of auto bound the stopped runs.
        std::vector<std::uint64_t> auto_pass;
        std::uint64_t topdown_edges = 0;
        for (const auto kernel : kKernels) {
          KernelRow row = new_row(graph::bfs_kernel_name(kernel), "full");
          graph::BfsScratch scratch;
          std::vector<std::uint32_t> dist(g.num_vertices());
          for (std::size_t i = 0; i < sources.size(); ++i) {
            graph::BfsKernelStats stats;
            const util::Timer timer;
            scratch.run(csr, id(sources[i]), kernel, &stats);
            row.wall_ms += timer.millis();
            scratch.copy_distances(dist);
            add_stats(row.stats, stats);
            if (stats.bottom_up_levels == 0) {
              row.lines_touched +=
                  line_counter.count(csr, scratch, stats.top_down_levels);
            }
            if (!bfs_order && kernel == graph::BfsKernel::kTopDown) {
              reference.push_back(dist);
            } else {
              for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
                if (dist[id(v)] != reference[i][v]) row.identical = false;
              }
            }
            if (kernel == graph::BfsKernel::kAuto) {
              auto_pass.push_back(stats.edges_inspected);
            }
          }
          if (kernel == graph::BfsKernel::kTopDown) {
            topdown_edges = row.stats.edges_inspected;
            if (!bfs_order) {
              input_topdown_edges = topdown_edges;
              input_topdown_lines = row.lines_touched;
            } else {
              order_work_ok =
                  order_work_ok && topdown_edges == input_topdown_edges;
              locality_ok = locality_ok &&
                            (family != "geometric" ||
                             row.lines_touched <= input_topdown_lines);
            }
          } else if (work_gated(kernel, family) &&
                     row.stats.edges_inspected > topdown_edges) {
            work_gate_ok = false;
          }
          all_identical = all_identical && row.identical;
          rows.push_back(row);
        }

        // The stopped runs, with targets taken from the source list.
        KernelRow stopped = new_row("auto", "targets");
        graph::BfsScratch scratch;
        for (std::size_t i = 0; i < sources.size(); ++i) {
          const std::vector<graph::Vertex> targets{
              sources[(i + 1) % sources.size()],
              sources[(i + sources.size() / 2) % sources.size()]};
          const std::vector<graph::Vertex> renamed{id(targets[0]),
                                                   id(targets[1])};
          graph::BfsKernelStats stats;
          const util::Timer timer;
          scratch.run(csr, id(sources[i]), renamed, graph::BfsKernel::kAuto,
                      &stats);
          stopped.wall_ms += timer.millis();
          if (stats.bottom_up_levels == 0) {
            stopped.lines_touched +=
                line_counter.count(csr, scratch, stats.top_down_levels);
          }
          for (const auto t : targets) {
            if (scratch.distance(id(t)) != reference[i][t]) {
              stopped.identical = false;
            }
          }
          targeted_work_ok =
              targeted_work_ok && stats.edges_inspected <= auto_pass[i];
          add_stats(stopped.stats, stats);
        }
        all_identical = all_identical && stopped.identical;
        rows.push_back(stopped);

        // The multi-source passes: 64 sources per pass, by ascending ID in
        // this order.
        if (g.num_vertices() > graph::MultiSourceBfs::kMaxVertices) continue;
        constexpr std::size_t kLanes = graph::MultiSourceBfs::kMaxLanes;
        KernelRow lanes = new_row("msbfs", "full");
        std::vector<std::size_t> by_id(sources.size());
        std::iota(by_id.begin(), by_id.end(), std::size_t{0});
        std::sort(by_id.begin(), by_id.end(),
                  [&](std::size_t x, std::size_t y) {
                    return id(sources[x]) < id(sources[y]);
                  });
        graph::MultiSourceBfs pass;
        std::vector<std::uint16_t> lane_rows;
        std::vector<graph::Vertex> group;
        for (std::size_t first = 0; first < sources.size(); first += kLanes) {
          const std::size_t last = std::min(first + kLanes, sources.size());
          group.clear();
          for (std::size_t k = first; k < last; ++k) {
            group.push_back(id(sources[by_id[k]]));
          }
          lane_rows.resize(group.size() * g.num_vertices());
          graph::BfsKernelStats stats;
          const util::Timer timer;
          pass.run(csr, group, lane_rows, &stats);
          lanes.wall_ms += timer.millis();
          add_stats(lanes.stats, stats);
          for (std::size_t k = first; k < last; ++k) {
            const std::size_t i = by_id[k];
            const std::uint16_t* row =
                lane_rows.data() + (k - first) * g.num_vertices();
            for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
              const std::uint16_t d = row[id(v)];
              const std::uint32_t got =
                  d == graph::MultiSourceBfs::kUnreached ? graph::kInfDist : d;
              if (got != reference[i][v]) lanes.identical = false;
            }
          }
        }
        msbfs_work_ok =
            msbfs_work_ok && lanes.stats.edges_inspected <= topdown_edges;
        all_identical = all_identical && lanes.identical;
        rows.push_back(lanes);
      }
    }
  }

  const auto lines = [](const KernelRow& row) {
    return has_lines(row) ? std::to_string(row.lines_touched)
                          : std::string("-");
  };
  util::Table t({"family", "n", "order", "kernel", "search",
                 "edges inspected", "lines touched", "td lvls", "bu lvls",
                 "ms", "identical"});
  for (const auto& row : rows) {
    t.add_row({row.family, std::to_string(row.n), row.order, row.kernel,
               row.search,
               std::to_string(row.stats.edges_inspected), lines(row),
               std::to_string(row.stats.top_down_levels),
               std::to_string(row.stats.bottom_up_levels),
               util::Table::num(row.wall_ms, 2),
               row.identical ? "yes" : "NO"});
  }
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "\nidentity gate: every kernel's distances, every "
               "stopped run's and every msbfs lane's, in either order, "
               "match input-order top-down's byte-for-byte; work gate: "
               "hybrid edges <= topdown on ba/er, auto edges <= topdown on "
               "er/er_dense/ba/grid/geometric/hypercube, in each order, and "
               "topdown edges equal across orders; locality gate: on "
               "geometric, bfs-order topdown lines <= input-order; "
               "targeted work gate: per source, targets <= the auto "
               "pass; msbfs work gate: msbfs edges <= topdown's over the "
               "same sources, on every family.\n";
  if (!all_identical) {
    std::cout << "ERROR: a kernel's, a stopped run's or an msbfs lane's "
                 "distances diverged from top-down.\n";
  }
  if (!work_gate_ok) {
    std::cout << "ERROR: hybrid or auto inspected more edges than top-down "
                 "on a gated family.\n";
  }
  if (!order_work_ok) {
    std::cout << "ERROR: top-down inspected a different number of edges in "
                 "the bfs order than in the input order.\n";
  }
  if (!locality_ok) {
    std::cout << "ERROR: on geometric, top-down in the bfs order touched "
                 "more lines than in the input order.\n";
  }
  if (!targeted_work_ok) {
    std::cout << "ERROR: a stopped run inspected more edges than the "
                 "full auto pass from its source.\n";
  }
  if (!msbfs_work_ok) {
    std::cout << "ERROR: the msbfs passes inspected more edges than "
                 "top-down from the same sources.\n";
  }

  if (!json_path.empty()) {
    std::string out = "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      const util::JsonObject fields{
          {"family", util::JsonValue::str(row.family)},
          {"n", util::JsonValue::number(static_cast<std::uint64_t>(row.n))},
          {"m", util::JsonValue::number(static_cast<std::uint64_t>(row.m))},
          {"order", util::JsonValue::str(row.order)},
          {"kernel", util::JsonValue::str(row.kernel)},
          {"search", util::JsonValue::str(row.search)},
          {"sources", util::JsonValue::number(num_sources)},
          {"edges_inspected",
           util::JsonValue::number(row.stats.edges_inspected)},
          {"top_down_levels",
           util::JsonValue::number(
               static_cast<std::uint64_t>(row.stats.top_down_levels))},
          {"bottom_up_levels",
           util::JsonValue::number(
               static_cast<std::uint64_t>(row.stats.bottom_up_levels))},
          {"lines_touched",
           has_lines(row) ? util::JsonValue::number(row.lines_touched)
                          : util::JsonValue::literal("null")},
          {"wall_ms",
           util::JsonValue::literal(run::format_real(row.wall_ms, 4))},
          {"identical_to_topdown", util::JsonValue::boolean(row.identical)},
      };
      out += "  ";
      out += util::render_json_object(fields);
      if (i + 1 < rows.size()) out += ",";
      out += "\n";
    }
    out += "]\n";
    std::ofstream file(json_path);
    if (!file) {
      std::cerr << "error: cannot open " << json_path << "\n";
      return 2;
    }
    file << out;
    std::cout << "wrote " << rows.size() << " rows to " << json_path << "\n";
  }

  return all_identical && work_gate_ok && order_work_ok && locality_ok &&
                 targeted_work_ok && msbfs_work_ok
             ? 0
             : 1;
}
