#include "graph/bfs.hpp"

#include <algorithm>
#include <stdexcept>

namespace nas::graph {

namespace {

BfsResult bfs_impl(const Graph& g, const std::vector<Vertex>& sources,
                   std::uint32_t depth_limit) {
  const Vertex n = g.num_vertices();
  BfsResult res;
  res.dist.assign(n, kInfDist);
  res.parent.assign(n, kInvalidVertex);
  res.root.assign(n, kInvalidVertex);

  // Seed in sorted order so that equidistant ties resolve to the smaller
  // source ID.  The frontier vector is consumed front-to-back (head index),
  // so it is the same FIFO the retired std::queue was — identical visit
  // order, identical parent/root tie-breaks, zero per-BFS heap churn.
  std::vector<Vertex> seeds = sources;
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  std::vector<Vertex> frontier;
  frontier.reserve(n);
  for (Vertex s : seeds) {
    if (s >= n) throw std::invalid_argument("bfs: source out of range");
    res.dist[s] = 0;
    res.root[s] = s;
    frontier.push_back(s);
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const Vertex u = frontier[head];
    if (res.dist[u] >= depth_limit) continue;
    for (Vertex v : g.neighbors(u)) {
      if (res.dist[v] == kInfDist) {
        res.dist[v] = res.dist[u] + 1;
        res.parent[v] = u;
        res.root[v] = res.root[u];
        frontier.push_back(v);
      }
    }
  }
  return res;
}

}  // namespace

BfsResult bfs(const Graph& g, Vertex source) {
  return bfs_impl(g, {source}, kInfDist);
}

BfsResult multi_source_bfs(const Graph& g, const std::vector<Vertex>& sources) {
  return bfs_impl(g, sources, kInfDist);
}

BfsResult multi_source_bfs_bounded(const Graph& g,
                                   const std::vector<Vertex>& sources,
                                   std::uint32_t depth) {
  return bfs_impl(g, sources, depth);
}

}  // namespace nas::graph
