// Bit-parallel multi-source BFS: up to 64 top-down searches over one Csr in
// a single pass (Then et al., "The More the Merrier: Efficient Multi-Source
// Graph Traversal", PVLDB 2014).
//
// Each source is a lane, one bit of a 64-bit mask.  Every vertex holds one
// 16-byte cell: `seen`, the lanes that reached it on an earlier level, and
// `next`, the lanes that reach it on the level being expanded.  A frontier
// entry is a vertex and its visit word, the lanes that reached it on the
// last level.  Expanding a level scans each frontier vertex's edges once
// for all of its lanes, and updates every neighbor without a branch:
//
//   next |= visit & ~seen;
//
// so a vertex that k lanes reach on the same level costs one scan of its
// edges, where k single-source searches cost k.  After the level, the next
// frontier is rebuilt by scanning the range of IDs the level touched (the
// neighbor lists are ascending, so each frontier vertex's first and last
// neighbor bound it): a vertex with lanes in `next` folds them into `seen`
// and joins the frontier with them.  Writing only `next` per edge, and
// `seen` once per discovery, ran about 10% faster than writing both per
// edge on geometric and caveman graphs.  Over a graph relabelled in its
// BFS order (Csr::relabel_bfs_order) the cells a level touches sit
// together.
//
// Distances come out as lane-major 16-bit rows: row i, d(sources[i], ·),
// is rows[i·n, (i+1)·n), with kUnreached where the vertex lies in another
// component.  They are exact whenever n ≤ kMaxVertices, because every
// finite distance is at most n − 1 < kUnreached; run() refuses larger
// graphs.  At 64 lanes and n = 16384 the rows take 2 MiB.
//
// Like every BFS kernel here, the result is distances only, and distances
// are level structure: each lane's row equals the single-source BFS from
// its source, whatever the other lanes do.  tests/test_bfs_kernels.cpp
// checks every lane against graph::bfs, and bench/bfs_kernels fails when a
// lane diverges from top-down's distances or the pass inspects more edges
// than top-down from each of its sources.
//
// One instance per worker; after the first run on a given vertex count,
// run() allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs_kernel.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace nas::graph {

class MultiSourceBfs {
 public:
  /// Sources one pass can search: the bits of a lane mask.
  static constexpr std::size_t kMaxLanes = 64;
  /// Distance-row entry of a vertex the lane never reaches.
  static constexpr std::uint16_t kUnreached = 0xFFFF;
  /// Largest vertex count whose distances all fit below kUnreached.
  static constexpr Vertex kMaxVertices = kUnreached;

  /// Searches `g` from every sources[i] at once and writes d(sources[i], v)
  /// to rows[i·n + v] (kUnreached where v is not reachable).  Duplicate
  /// sources are allowed.  `stats`, if given, receives the edges inspected
  /// and the levels expanded (as top_down_levels).  Throws
  /// std::invalid_argument when `sources` is empty or longer than
  /// kMaxLanes, a source is out of range, rows.size() != sources.size()·n,
  /// or n > kMaxVertices.
  void run(const Csr& g, std::span<const Vertex> sources,
           std::span<std::uint16_t> rows, BfsKernelStats* stats = nullptr);

 private:
  /// A vertex's lanes: those that reached it on an earlier level, and those
  /// that reach it on the level being expanded.
  struct Cell {
    std::uint64_t seen = 0;
    std::uint64_t next = 0;
  };
  /// A frontier vertex and the lanes that reached it on the last level.
  struct Visit {
    Vertex v = 0;
    std::uint64_t lanes = 0;
  };

  std::vector<Cell> cells_;
  std::vector<Visit> frontier_;
};

}  // namespace nas::graph
