#include "graph/apsp.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/bfs_kernel.hpp"

namespace nas::graph {

Apsp::Apsp(const Graph& g, Vertex max_n) : n_(g.num_vertices()) {
  if (n_ > max_n) {
    throw std::invalid_argument("Apsp: graph too large for the exact oracle");
  }
  dist_.resize(static_cast<std::size_t>(n_) * n_);
  // One BFS per source into its own row, on one reused BfsScratch with the
  // direction-optimizing kernel.  The adjacency is flattened to CSR once so
  // all n passes stream two flat arrays.
  const Csr csr = Csr::from_graph(g);
  BfsScratch scratch;
  for (Vertex s = 0; s < n_; ++s) {
    const auto row = std::span<std::uint32_t>(dist_).subspan(
        static_cast<std::size_t>(s) * n_, n_);
    bfs_kernel_into(csr, s, row, scratch, BfsKernel::kAuto);
  }
}

std::uint32_t Apsp::max_finite_distance() const {
  std::uint32_t best = 0;
  for (std::uint32_t d : dist_) {
    if (d != kInfDist) best = std::max(best, d);
  }
  return best;
}

}  // namespace nas::graph
