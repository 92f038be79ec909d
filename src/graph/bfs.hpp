// Centralized BFS primitives.
//
// These are the *verification* oracles: exact distances against which the
// distributed constructions are checked.  They are deliberately independent
// of the CONGEST simulator code path.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace nas::graph {

/// Result of a (single- or multi-source) BFS.
struct BfsResult {
  std::vector<std::uint32_t> dist;  // kInfDist if unreachable
  std::vector<Vertex> parent;       // kInvalidVertex at sources/unreached
  std::vector<Vertex> root;         // nearest source (kInvalidVertex if none)
};

/// BFS from a single source.
///
/// Tie-break contract (shared by every entry point below): sources are
/// seeded in ascending ID order and the frontier is consumed FIFO, so an
/// equidistant vertex takes its parent/root through the smallest-ID chain.
/// The traversal runs on a vector frontier drained by head index — the same
/// FIFO discipline the original std::queue implementation had, kept
/// allocation-flat instead of heap-churning per BFS.
[[nodiscard]] BfsResult bfs(const Graph& g, Vertex source);

/// BFS from a set of sources.  Ties between equidistant sources are broken
/// towards the source reached through the smallest-ID parent chain; with the
/// sorted adjacency lists this makes the result deterministic.
[[nodiscard]] BfsResult multi_source_bfs(const Graph& g,
                                         const std::vector<Vertex>& sources);

/// Depth-bounded variant: vertices farther than `depth` from every source
/// keep dist == kInfDist.
[[nodiscard]] BfsResult multi_source_bfs_bounded(
    const Graph& g, const std::vector<Vertex>& sources, std::uint32_t depth);

}  // namespace nas::graph
