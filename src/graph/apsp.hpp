// All-pairs shortest paths by repeated BFS — exact ground truth for the
// tests and the approx_shortest_paths example.  O(n·(n+m)) time, O(n²)
// space; guarded against accidental use on graphs too large for test scale.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace nas::graph {

class Apsp {
 public:
  /// Computes all-pairs distances.  Throws std::invalid_argument if n
  /// exceeds `max_n` (a guard against multi-GB allocations in scripts).
  explicit Apsp(const Graph& g, Vertex max_n = 20000);

  [[nodiscard]] std::uint32_t dist(Vertex u, Vertex v) const {
    return dist_[static_cast<std::size_t>(u) * n_ + v];
  }

  [[nodiscard]] Vertex num_vertices() const { return n_; }

  /// Maximum finite distance (diameter over connected pairs).
  [[nodiscard]] std::uint32_t max_finite_distance() const;

 private:
  Vertex n_;
  std::vector<std::uint32_t> dist_;
};

}  // namespace nas::graph
