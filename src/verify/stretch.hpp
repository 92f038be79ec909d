// Stretch verification: compares distances in the spanner H against the
// input graph G and checks the (M, A) guarantee d_H ≤ M·d_G + A.
//
// `verify_stretch_exact` checks every pair (O(n·m) BFS work) and is the
// test-suite oracle; `verify_stretch_sampled` BFS-es from a deterministic
// sample of sources and is used at bench scale.
//
// Each graph is searched relabelled in its own BFS order.  Over G, where
// the `auto` kernel's density rule holds (average directed degree >= 5)
// and n <= 65535, the sources go in fixed groups of 64, taken in the order
// of their IDs in G's BFS order so that a group's sources lie near each
// other, and each group is one graph::MultiSourceBfs pass into 16-bit rows;
// elsewhere (grids, trees, paths), where a shared edge scan serves too few
// lanes to pay, each source is one single-source BFS.  Over H, each source
// is one single-source BFS.  Pairs are accumulated per source, in input
// vertex order, by the same loop on either path.
//
// Both verifiers are sharded: with `threads` > 1 the work items — lane
// groups, or sources on the per-source path — are split into contiguous
// blocks processed on a worker pool, and the per-source partial reports
// are merged afterwards in fixed source order.  Because every per-source
// partial is computed identically regardless of which worker runs it, and
// the merge order never depends on the thread count, the returned
// StretchReport is bit-identical to the serial (threads == 1) result for
// every thread count.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace nas::verify {

struct StretchReport {
  /// False iff some checked pair violates d_H ≤ M·d_G + A beyond a 1e-9
  /// float tolerance, or connectivity_ok is false.
  bool bound_ok = true;
  bool connectivity_ok = true;   ///< d_H finite wherever d_G is finite
  std::uint64_t pairs_checked = 0;

  double max_multiplicative = 1.0;  ///< max d_H/d_G over checked pairs (d_G>0)
  double mean_multiplicative = 1.0;
  std::uint64_t max_additive = 0;   ///< max (d_H − d_G)
  double max_excess = 0.0;          ///< max(0, max (d_H − M·d_G))

  // Witness of the worst additive-excess pair.  Contract: set iff some
  // checked pair has strictly positive excess d_H − M·d_G (equivalently,
  // max_excess > 0); otherwise all four keep their sentinel values
  // (kInvalidVertex / 0).  Ties are broken deterministically towards the
  // first pair in verification order — smallest source u, then smallest v —
  // so the witness does not depend on the thread count.
  graph::Vertex worst_u = graph::kInvalidVertex;
  graph::Vertex worst_v = graph::kInvalidVertex;
  std::uint32_t worst_dg = 0;
  std::uint32_t worst_dh = 0;
};

/// Field-by-field bit equality of two reports, doubles compared by bit
/// pattern (so -0.0 vs 0.0 or differently-rounded sums count as
/// divergence).  The single authoritative comparison behind the
/// determinism tests and bench/verify_scaling — keep it in sync with
/// StretchReport's fields.
[[nodiscard]] bool bit_identical(const StretchReport& a,
                                 const StretchReport& b);

/// Whether the verifiers search `g` (G) in multi-source passes, one per
/// group of graph::MultiSourceBfs::kMaxLanes sources, rather than one BFS
/// per source; the groups are then the units the worker pool shards.  True
/// where the density rule sends `auto` to hybrid, so a shared scan of a
/// vertex's edges serves enough lanes to pay for itself (on grids and trees
/// it does not), and n <= MultiSourceBfs::kMaxVertices, so the 16-bit rows
/// hold G's distances.  Depends on g's vertex and edge counts only, not on
/// its labelling.
[[nodiscard]] bool lanes_pay(const graph::Csr& g);

/// Exhaustive check over all connected pairs.  Throws std::invalid_argument
/// if the graphs have different vertex counts.  `threads` shards the BFS
/// sources across a worker pool (0 = hardware concurrency); the report is
/// bit-identical for every thread count.
[[nodiscard]] StretchReport verify_stretch_exact(const graph::Graph& g,
                                                 const graph::Graph& h,
                                                 double m, double a,
                                                 unsigned threads = 1);

/// Checks all pairs (s, v) for `num_sources` deterministically chosen
/// sources s (seeded).  `threads` as in verify_stretch_exact.
[[nodiscard]] StretchReport verify_stretch_sampled(const graph::Graph& g,
                                                   const graph::Graph& h,
                                                   double m, double a,
                                                   std::uint32_t num_sources,
                                                   std::uint64_t seed,
                                                   unsigned threads = 1);

}  // namespace nas::verify
