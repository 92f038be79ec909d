// Core graph types.
//
// The paper works with unweighted, undirected, simple graphs whose vertices
// carry unique IDs in [n].  `Graph` is an immutable adjacency structure
// (vertex IDs are the indices), and `EdgeSet` is the growable edge container
// used for the spanner H while it is under construction.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace nas::graph {

using Vertex = std::uint32_t;
using Edge = std::pair<Vertex, Vertex>;

inline constexpr Vertex kInvalidVertex = static_cast<Vertex>(-1);

/// Distance value for "unreachable" in BFS/APSP results.
inline constexpr std::uint32_t kInfDist = static_cast<std::uint32_t>(-1);

/// Canonical (min, max) form of an undirected edge.
constexpr Edge canonical(Vertex u, Vertex v) {
  return u < v ? Edge{u, v} : Edge{v, u};
}

/// Packs a canonical edge into one word (used as a hash key).
constexpr std::uint64_t edge_key(Vertex u, Vertex v) {
  const auto [lo, hi] = canonical(u, v);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// An immutable, simple, undirected, unweighted graph on vertices 0..n-1.
///
/// Adjacency lists are sorted by neighbor ID; all algorithms in this library
/// that iterate neighbors therefore do so in deterministic ID order, which is
/// what makes the deterministic protocols reproducible bit-for-bit.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an edge list in any order and orientation.
  /// Self-loops and endpoints >= n are rejected (std::invalid_argument);
  /// parallel edges are deduplicated.  A counting sort: degrees, prefix
  /// sums, both directions scattered, then each list sorted, deduplicated
  /// and compacted, in O(n + m) plus the per-list sorts.
  static Graph from_edges(Vertex n, const std::vector<Edge>& edges);

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::size_t num_edges() const { return m_; }

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return {adj_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  [[nodiscard]] std::size_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  [[nodiscard]] std::size_t max_degree() const;

  /// O(log deg) membership test.
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  /// All edges in canonical form, sorted lexicographically.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Average degree 2m/n (0 for the empty graph).
  [[nodiscard]] double average_degree() const {
    return n_ == 0 ? 0.0 : 2.0 * static_cast<double>(m_) / n_;
  }

  /// Human-readable one-line summary, e.g. "Graph(n=100, m=250)".
  [[nodiscard]] std::string summary() const;

 private:
  Vertex n_ = 0;
  std::size_t m_ = 0;
  std::vector<std::size_t> offsets_{0};  // CSR offsets, size n_+1
  std::vector<Vertex> adj_;              // concatenated sorted neighbor lists
};

/// Growable set of undirected edges over a fixed vertex universe.  This is
/// the representation of the spanner H during construction: inserts are
/// idempotent, and the final structure converts to a `Graph` for verification.
class EdgeSet {
 public:
  explicit EdgeSet(Vertex n) : n_(n) {}

  /// Inserts {u, v}; returns true if the edge was new.  Rejects self-loops
  /// and out-of-range endpoints via std::invalid_argument.
  bool insert(Vertex u, Vertex v);

  [[nodiscard]] bool contains(Vertex u, Vertex v) const {
    return keys_.count(edge_key(u, v)) != 0;
  }

  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  /// Materializes the subgraph (V, H).
  [[nodiscard]] Graph to_graph() const { return Graph::from_edges(n_, edges_); }

 private:
  Vertex n_;
  std::unordered_set<std::uint64_t> keys_;
  std::vector<Edge> edges_;  // insertion order, canonical form
};

}  // namespace nas::graph
