#include "graph/csr.hpp"

#include <algorithm>
#include <stdexcept>

namespace nas::graph {

namespace {

/// The owned-array backing store a from_graph/adopt Csr keeps alive.
struct OwnedArrays {
  std::vector<std::uint64_t> offsets;
  std::vector<Vertex> entries;
};

}  // namespace

Csr Csr::from_graph(const Graph& g) {
  const Vertex n = g.num_vertices();
  auto arrays = std::make_shared<OwnedArrays>();
  arrays->offsets.resize(static_cast<std::size_t>(n) + 1);
  arrays->entries.reserve(2 * g.num_edges());
  arrays->offsets[0] = 0;
  for (Vertex v = 0; v < n; ++v) {
    const auto neighbors = g.neighbors(v);
    arrays->entries.insert(arrays->entries.end(), neighbors.begin(),
                           neighbors.end());
    arrays->offsets[v + 1] = arrays->entries.size();
  }
  // Bind the spans before std::move(arrays): argument evaluation order is
  // unspecified, so passing arrays->offsets and std::move(arrays) in one
  // call could read a moved-from (null) shared_ptr.
  const std::span<const std::uint64_t> offsets(arrays->offsets);
  const std::span<const Vertex> entries(arrays->entries);
  return view(offsets, entries, std::move(arrays));
}

Csr Csr::adopt(std::vector<std::uint64_t> offsets,
               std::vector<Vertex> entries) {
  auto arrays = std::make_shared<OwnedArrays>();
  arrays->offsets = std::move(offsets);
  arrays->entries = std::move(entries);
  const std::span<const std::uint64_t> offset_view(arrays->offsets);
  const std::span<const Vertex> entry_view(arrays->entries);
  return view(offset_view, entry_view, std::move(arrays));
}

Csr Csr::view(std::span<const std::uint64_t> offsets,
              std::span<const Vertex> entries,
              std::shared_ptr<const void> keepalive) {
  Csr csr;
  csr.offsets_ = offsets;
  csr.entries_ = entries;
  csr.storage_ = std::move(keepalive);
  return csr;
}

Graph Csr::to_graph() const {
  const Vertex n = num_vertices();
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return Graph::from_edges(n, edges);
}

RelabelledCsr Csr::relabel_bfs_order() const {
  const Vertex n = num_vertices();
  // order[] is the BFS queue of every component in turn; to_new doubles as
  // the visited mark (kInvalidVertex until the vertex is queued).
  std::vector<Vertex> to_new(n, kInvalidVertex);
  std::vector<Vertex> order;
  order.reserve(n);
  for (Vertex root = 0; root < n; ++root) {
    if (to_new[root] != kInvalidVertex) continue;
    to_new[root] = static_cast<Vertex>(order.size());
    order.push_back(root);
    for (std::size_t head = to_new[root]; head < order.size(); ++head) {
      for (const Vertex w : neighbors(order[head])) {
        if (to_new[w] != kInvalidVertex) continue;
        to_new[w] = static_cast<Vertex>(order.size());
        order.push_back(w);
      }
    }
  }
  Csr relabelled = relabel(to_new);
  return {std::move(relabelled), std::move(to_new)};
}

Csr Csr::relabel(std::span<const Vertex> to_new) const {
  const Vertex n = num_vertices();
  if (to_new.size() != n) {
    throw std::invalid_argument("Csr::relabel: permutation size must be n");
  }
  std::vector<Vertex> to_old(n, kInvalidVertex);
  for (Vertex v = 0; v < n; ++v) {
    if (to_new[v] >= n || to_old[to_new[v]] != kInvalidVertex) {
      throw std::invalid_argument("Csr::relabel: not a permutation of [0, n)");
    }
    to_old[to_new[v]] = v;
  }
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Vertex> entries;
  entries.reserve(entries_.size());
  for (Vertex v = 0; v < n; ++v) {
    const auto first = entries.end() - entries.begin();
    for (const Vertex w : neighbors(to_old[v])) entries.push_back(to_new[w]);
    std::sort(entries.begin() + first, entries.end());
    offsets[v + 1] = entries.size();
  }
  return adopt(std::move(offsets), std::move(entries));
}

std::string Csr::summary() const {
  return "Graph(n=" + std::to_string(num_vertices()) +
         ", m=" + std::to_string(num_edges()) + ")";
}

}  // namespace nas::graph
