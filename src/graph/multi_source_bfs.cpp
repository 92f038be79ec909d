#include "graph/multi_source_bfs.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace nas::graph {

void MultiSourceBfs::run(const Csr& g, std::span<const Vertex> sources,
                         std::span<std::uint16_t> rows,
                         BfsKernelStats* stats) {
  const Vertex n = g.num_vertices();
  if (sources.empty() || sources.size() > kMaxLanes) {
    throw std::invalid_argument(
        "multi_source_bfs: needs 1 to 64 sources per pass");
  }
  if (n > kMaxVertices) {
    throw std::invalid_argument(
        "multi_source_bfs: 16-bit rows hold at most 65535 vertices");
  }
  for (const Vertex s : sources) {
    if (s >= n) {
      throw std::invalid_argument("multi_source_bfs: source out of range");
    }
  }
  if (rows.size() != sources.size() * std::size_t{n}) {
    throw std::invalid_argument(
        "multi_source_bfs: rows must hold num_sources x num_vertices entries");
  }

  // Only grows the arrays: a run on a graph no larger than the last one
  // allocates nothing.
  cells_.assign(n, Cell{});
  frontier_.resize(n);
  std::fill(rows.begin(), rows.end(), kUnreached);

  // Lane i starts at sources[i]; duplicate sources share one frontier entry,
  // whose visit word is read once every lane has been seeded.
  Cell* const cells = cells_.data();
  Visit* const frontier = frontier_.data();
  std::uint16_t* const out = rows.data();
  std::size_t size = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Vertex s = sources[i];
    if (cells[s].seen == 0) frontier[size++] = Visit{s, 0};
    cells[s].seen |= std::uint64_t{1} << i;
    out[i * n + s] = 0;
  }
  for (std::size_t i = 0; i < size; ++i) {
    frontier[i].lanes = cells[frontier[i].v].seen;
  }

  std::uint64_t edges_inspected = 0;
  std::uint32_t levels = 0;
  while (size > 0) {
    ++levels;
    const auto dist = static_cast<std::uint16_t>(levels);
    Vertex lo = n;
    Vertex hi = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint64_t lanes = frontier[i].lanes;
      const auto neighbors = g.neighbors(frontier[i].v);
      if (neighbors.empty()) continue;
      edges_inspected += neighbors.size();
      lo = std::min(lo, neighbors.front());
      hi = std::max(hi, neighbors.back());
      for (const Vertex u : neighbors) {
        Cell& cell = cells[u];
        cell.next |= lanes & ~cell.seen;
      }
    }

    // Every vertex with a lane in `next` lies in [lo, hi]; it joins the
    // frontier with those lanes, they join its `seen`, and each of them
    // records its distance.
    size = 0;
    for (Vertex u = lo; u <= hi; ++u) {
      Cell& cell = cells[u];
      if (cell.next == 0) continue;
      cell.seen |= cell.next;
      frontier[size++] = Visit{u, cell.next};
      for (std::uint64_t lanes = cell.next; lanes != 0; lanes &= lanes - 1) {
        out[static_cast<std::size_t>(std::countr_zero(lanes)) * n + u] = dist;
      }
      cell.next = 0;
    }
  }

  if (stats != nullptr) {
    stats->edges_inspected = edges_inspected;
    stats->top_down_levels = levels;
    stats->bottom_up_levels = 0;
  }
}

}  // namespace nas::graph
