#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace nas::graph {

Graph Graph::from_edges(Vertex n, const std::vector<Edge>& edges) {
  Graph g;
  g.n_ = n;

  // Counting sort: degrees (duplicates included) into offsets[v + 1], whose
  // prefix sums make offsets[v] the start of v's list.
  std::vector<std::size_t>& offsets = g.offsets_;
  offsets.assign(std::size_t{n} + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u >= n || v >= n) {
      throw std::invalid_argument("Graph::from_edges: endpoint out of range");
    }
    if (u == v) {
      throw std::invalid_argument("Graph::from_edges: self-loop rejected");
    }
    ++offsets[std::size_t{u} + 1];
    ++offsets[std::size_t{v} + 1];
  }
  for (std::size_t v = 1; v <= n; ++v) offsets[v] += offsets[v - 1];

  // Scatter both directions, advancing offsets[v] to the end of v's list.
  std::vector<Vertex>& adj = g.adj_;
  adj.resize(offsets[n]);
  for (const auto& [u, v] : edges) {
    adj[offsets[u]++] = v;
    adj[offsets[v]++] = u;
  }

  // Sort and dedupe each list, and compact it down to its final start.
  std::size_t begin = 0;
  std::size_t out = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::size_t end = offsets[v];
    const auto first = adj.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = adj.begin() + static_cast<std::ptrdiff_t>(end);
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    offsets[v] = out;
    if (out != begin) {
      std::copy(first, unique_end,
                adj.begin() + static_cast<std::ptrdiff_t>(out));
    }
    out += static_cast<std::size_t>(unique_end - first);
    begin = end;
  }
  offsets[n] = out;
  if (out != adj.size()) {
    adj.resize(out);
    adj.shrink_to_fit();
  }
  // Each distinct edge is left once in each endpoint's list.
  g.m_ = out / 2;
  return g;
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (Vertex v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  if (u >= n_ || v >= n_ || u == v) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(m_);
  for (Vertex u = 0; u < n_; ++u) {
    for (Vertex v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

std::string Graph::summary() const {
  return "Graph(n=" + std::to_string(n_) + ", m=" + std::to_string(m_) + ")";
}

bool EdgeSet::insert(Vertex u, Vertex v) {
  if (u >= n_ || v >= n_) {
    throw std::invalid_argument("EdgeSet::insert: endpoint out of range");
  }
  if (u == v) throw std::invalid_argument("EdgeSet::insert: self-loop");
  const auto [_, inserted] = keys_.insert(edge_key(u, v));
  if (inserted) edges_.push_back(canonical(u, v));
  return inserted;
}

}  // namespace nas::graph
