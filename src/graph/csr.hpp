// Flat compressed-sparse-row adjacency — the BFS hot-path representation.
//
// `Graph` is the construction-time structure: adjacency lists behind two
// vectors, built by sorting an edge list.  `Csr` is the serving-time view of
// the same adjacency: one offset array (n+1 entries) and one edge array (2m
// directed entries, each vertex's neighbors in ascending ID order — the same
// order Graph stores, so every BFS over a Csr visits vertices in exactly
// the order the adjacency-list BFS does and all distance answers stay
// byte-identical).
//
// A Csr never owns its arrays directly: it holds spans plus a shared_ptr
// keep-alive.  That makes copies O(1) — a sharded serving cluster hands
// every shard the same immutable arrays instead of replicating the spanner
// per shard — and lets the v2 binary snapshot loader point the spans
// straight into a util::MappedFile, so warming an oracle from disk is
// zero-copy.
//
// Locality order: relabel_bfs_order() renumbers the vertices in the order a
// BFS visits them — from the smallest unvisited ID of each component,
// neighbors ascending — so that vertices a BFS reaches together sit
// together in every per-vertex array.  An input whose IDs are random with
// respect to its structure (a geometric graph's points, say) otherwise
// makes every BFS level read its per-vertex state at random.  Distances
// are a property of the graph, not of its labelling: d'(to_new[u],
// to_new[v]) = d(u, v), so a caller that translates IDs at its boundary
// gets byte-identical answers.  relabel(to_new) applies any permutation;
// the result's neighbor lists stay ascending in the new IDs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace nas::graph {

struct RelabelledCsr;

class Csr {
 public:
  /// An empty graph (n = 0, m = 0).
  Csr() = default;

  /// Copies `g`'s adjacency into freshly owned arrays.
  [[nodiscard]] static Csr from_graph(const Graph& g);

  /// Takes ownership of prebuilt arrays.  `offsets` must have n+1 entries
  /// starting at 0, ending at entries.size(), and nondecreasing; `entries`
  /// holds each vertex's neighbors in ascending order.  Trusted callers
  /// only (the snapshot loader validates before calling).
  [[nodiscard]] static Csr adopt(std::vector<std::uint64_t> offsets,
                                 std::vector<Vertex> entries);

  /// Wraps external arrays without copying; `keepalive` (e.g. the
  /// util::MappedFile behind a v2 snapshot) is retained for the lifetime of
  /// this Csr and every copy of it.
  [[nodiscard]] static Csr view(std::span<const std::uint64_t> offsets,
                                std::span<const Vertex> entries,
                                std::shared_ptr<const void> keepalive);

  [[nodiscard]] Vertex num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<Vertex>(offsets_.size() - 1);
  }
  /// Undirected edge count (half the directed entry count).
  [[nodiscard]] std::size_t num_edges() const { return entries_.size() / 2; }

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return entries_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }
  [[nodiscard]] std::size_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// The raw arrays (the v2 snapshot writer serializes these verbatim).
  [[nodiscard]] std::span<const std::uint64_t> offsets() const {
    return offsets_;
  }
  [[nodiscard]] std::span<const Vertex> entries() const { return entries_; }

  /// True when both Csr objects point at the same underlying arrays (shared
  /// view rather than replicated storage).
  [[nodiscard]] bool shares_storage_with(const Csr& other) const {
    return !offsets_.empty() && offsets_.data() == other.offsets_.data() &&
           entries_.data() == other.entries_.data();
  }

  /// Materializes an adjacency-list Graph with identical neighbor order.
  [[nodiscard]] Graph to_graph() const;

  /// This graph renumbered in its BFS order (see the file comment): vertex
  /// v becomes to_new[v], where to_new[v] is v's rank in a BFS that starts
  /// from the smallest unvisited ID of each component in turn and scans
  /// neighbors in ascending ID order.  Deterministic; O(n + m log Δ).
  [[nodiscard]] RelabelledCsr relabel_bfs_order() const;

  /// This graph with vertex v renamed to_new[v]; every neighbor list of the
  /// result is ascending.  Throws std::invalid_argument unless `to_new` is
  /// a permutation of [0, n).  The result owns fresh arrays.
  [[nodiscard]] Csr relabel(std::span<const Vertex> to_new) const;

  /// Human-readable one-line summary, e.g. "Graph(n=100, m=250)" — same
  /// rendering as Graph::summary() so CLI banners are representation-free.
  [[nodiscard]] std::string summary() const;

 private:
  std::span<const std::uint64_t> offsets_;  // n+1 entries; empty when n == 0
  std::span<const Vertex> entries_;         // 2m directed adjacency entries
  std::shared_ptr<const void> storage_;     // owned vectors or a file mapping
};

/// A relabelled graph and the permutation that produced it: vertex v of the
/// original is vertex to_new[v] of `csr`.
struct RelabelledCsr {
  Csr csr;
  std::vector<Vertex> to_new;
};

}  // namespace nas::graph
