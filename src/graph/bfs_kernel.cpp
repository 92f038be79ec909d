#include "graph/bfs_kernel.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace nas::graph {

namespace {

// Beamer-style switch thresholds, at the paper's values (14, 24).  Top-down
// -> bottom-up needs the edges out of the current frontier to exceed the
// edges still adjacent to unvisited vertices divided by kAlpha; bottom-up ->
// top-down happens when the frontier drops below n / kBeta vertices.  The
// alpha test alone is tuned for low-diameter graphs whose frontier takes in
// the rest of the graph within a level or two.  On geometric, hypercube and
// caveman graphs it passes on frontiers that grow slowly, and every
// bottom-up level then rescans each unvisited vertex's whole adjacency.  So
// run() also asks that the next level leave fewer unvisited edges than the
// frontier holds (see next_level_estimate).  Correctness never depends on
// any of this.
constexpr std::uint64_t kAlpha = 14;
constexpr std::uint64_t kBeta = 24;

// kAuto resolves per graph, not per level: hybrid pays a bitmap-build and an
// O(n) unvisited scan per bottom-up level, which only amortizes when the
// middle levels are edge-dense.  Average directed degree >= kAutoDegree
// (er ~8, er_dense ~32, ba ~6 qualify; grid = 4, path/tree do not) is the
// whole heuristic — deterministic, O(1), no measurement involved.
constexpr std::uint64_t kAutoDegree = 5;

// Edges out of the next level, extrapolated from the frontier's growth:
// m_f^2 / m_prev, where m_f and m_prev are the edges out of the current and
// the previous level, capped at the m_u edges still unvisited.  m_prev >= 1:
// a level is non-empty only if the level before it has an edge into it.
// When m_f^2 would overflow (a frontier of 2^32 edges or more) the next
// level is taken to swallow the remainder.
inline std::uint64_t next_level_estimate(std::uint64_t m_f,
                                         std::uint64_t m_prev,
                                         std::uint64_t m_u) {
  if (m_f != 0 && m_f > std::numeric_limits<std::uint64_t>::max() / m_f) {
    return m_u;
  }
  return std::min(m_u, m_f * m_f / m_prev);
}

inline void set_bit(std::vector<std::uint64_t>& bits, Vertex v) {
  bits[v >> 6] |= std::uint64_t{1} << (v & 63U);
}

inline bool test_bit(const std::vector<std::uint64_t>& bits, Vertex v) {
  return ((bits[v >> 6] >> (v & 63U)) & 1U) != 0;
}

}  // namespace

BfsKernel resolve_bfs_kernel(BfsKernel kernel, const Csr& g) {
  if (kernel != BfsKernel::kAuto) return kernel;
  return g.entries().size() >= kAutoDegree * g.num_vertices()
             ? BfsKernel::kHybrid
             : BfsKernel::kTopDown;
}

const char* bfs_kernel_name(BfsKernel kernel) {
  switch (kernel) {
    case BfsKernel::kTopDown:
      return "topdown";
    case BfsKernel::kHybrid:
      return "hybrid";
    case BfsKernel::kAuto:
      return "auto";
  }
  return "auto";
}

void BfsScratch::run(const Csr& g, Vertex source, BfsKernel kernel,
                     BfsKernelStats* stats) {
  run_levels(g, source, kernel, stats, {}, false);
}

void BfsScratch::run(const Csr& g, Vertex source,
                     std::span<const Vertex> targets, BfsKernel kernel,
                     BfsKernelStats* stats) {
  for (const Vertex t : targets) {
    if (t >= g.num_vertices()) {
      throw std::invalid_argument("bfs_kernel: target out of range");
    }
  }
  run_levels(g, source, kernel, stats, targets, true);
}

void BfsScratch::run_levels(const Csr& g, Vertex source, BfsKernel kernel,
                            BfsKernelStats* stats,
                            std::span<const Vertex> targets,
                            bool stop_at_targets) {
  start(g, source);
  if (resolve_bfs_kernel(kernel, g) == BfsKernel::kHybrid) {
    run_hybrid(g, stats, targets, stop_at_targets);
  } else {
    run_top_down(g, stats, targets, stop_at_targets);
  }
}

void BfsScratch::start(const Csr& g, Vertex source) {
  const Vertex n = g.num_vertices();
  if (source >= n) {
    throw std::invalid_argument("bfs_kernel: source out of range");
  }
  if (n != n_) {
    n_ = n;
    cells_.assign(n, Cell{});
    epoch_ = 0;  // bumped to 1 below; every cell is stale by construction
    const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
    front_bits_.resize(words);
    next_bits_.resize(words);
    frontier_.resize(n);
  }

  // New epoch == every previous distance becomes invalid in O(1).  On wrap
  // (every 2^16 runs) the tags are flushed once so a stale cell from 65536
  // runs ago can never alias the fresh epoch.
  if (epoch_ == std::uint16_t(-1)) {
    for (Cell& cell : cells_) cell.epoch = 0;
    epoch_ = 1;
  } else {
    epoch_ = static_cast<std::uint16_t>(epoch_ + 1);
  }
  cells_[source] = Cell{0, epoch_};
  frontier_[0] = source;
  reached_ = 1;
  targets_reached_ = 0;
}

bool BfsScratch::targets_done(std::span<const Vertex> targets) {
  // Between levels only: every target reached so far holds its final
  // distance, and the level loops stay the full run's.
  while (targets_reached_ < targets.size() &&
         cells_[targets[targets_reached_]].epoch == epoch_) {
    ++targets_reached_;
  }
  return targets_reached_ == targets.size();
}

void BfsScratch::run_top_down(const Csr& g, BfsKernelStats* stats,
                              std::span<const Vertex> targets,
                              bool stop_at_targets) {
  // The frontier vertices' neighbor ranges and their neighbors' cells are
  // all this loop reads; the queue is written through a raw cursor, since
  // n slots always hold every vertex a run can reach.
  Cell* const cells = cells_.data();
  Vertex* const queue = frontier_.data();
  const std::uint16_t epoch = epoch_;
  std::size_t tail = reached_;
  std::size_t level_begin = 0;
  std::uint64_t edges_inspected = 0;
  std::uint32_t levels = 0;

  while (level_begin < tail) {
    if (stop_at_targets && targets_done(targets)) break;
    const std::size_t level_end = tail;
    const std::uint32_t next_dist = levels + 1;
    for (std::size_t i = level_begin; i < level_end; ++i) {
      const auto neighbors = g.neighbors(queue[i]);
      edges_inspected += neighbors.size();
      for (const Vertex v : neighbors) {
        Cell& cell = cells[v];
        if (cell.epoch != epoch) {
          cell = Cell{next_dist, epoch};
          queue[tail++] = v;
        }
      }
    }
    level_begin = level_end;
    ++levels;
  }
  reached_ = tail;
  complete_ = level_begin == tail;

  if (stats != nullptr) {
    stats->edges_inspected = edges_inspected;
    stats->top_down_levels = levels;
    stats->bottom_up_levels = 0;
  }
}

void BfsScratch::run_hybrid(const Csr& g, BfsKernelStats* stats,
                            std::span<const Vertex> targets,
                            bool stop_at_targets) {
  const Vertex n = g.num_vertices();
  const Vertex source = frontier_[0];
  const std::uint64_t total_directed = g.entries().size();
  std::uint64_t visited_degree = g.degree(source);  // deg sum over visited
  std::uint64_t level_degree = visited_degree;      // edges out of this level
  std::uint64_t prev_degree = 1;  // edges out of the level before; 1 at first
  std::uint64_t edges_inspected = 0;
  std::uint32_t top_down_levels = 0;
  std::uint32_t bottom_up_levels = 0;
  std::uint32_t depth = 0;
  std::size_t level_begin = 0;
  std::size_t tail = reached_;
  bool bottom_up = false;
  bool bits_valid = false;  // front_bits_ mirrors the current level slice

  while (level_begin < tail) {
    if (stop_at_targets && targets_done(targets)) break;
    const std::size_t level_end = tail;

    if (!bottom_up) {
      // The sums were accumulated while this frontier was generated (Csr
      // offsets are the degree prefix, so each discovered vertex added its
      // degree in O(1)) — the switch decision is O(1) here.
      const std::uint64_t unvisited_degree = total_directed - visited_degree;
      const std::uint64_t next_degree =
          next_level_estimate(level_degree, prev_degree, unvisited_degree);
      bottom_up = level_degree > unvisited_degree / kAlpha &&
                  unvisited_degree - next_degree < level_degree;
    } else if (level_end - level_begin < n / kBeta) {
      bottom_up = false;
    }

    const std::uint32_t next_dist = depth + 1;
    std::uint64_t next_level_degree = 0;

    if (bottom_up) {
      // The frontier bitmap either survived from the previous bottom-up
      // level (the post-scan swap below leaves it in front_bits_) or is
      // rebuilt once from the level slice on a top-down -> bottom-up switch.
      if (!bits_valid) {
        std::fill(front_bits_.begin(), front_bits_.end(), std::uint64_t{0});
        for (std::size_t i = level_begin; i < level_end; ++i) {
          set_bit(front_bits_, frontier_[i]);
        }
      }
      std::fill(next_bits_.begin(), next_bits_.end(), std::uint64_t{0});
      // Ascending vertex order — the same per-level membership top-down
      // finds, so distances stay byte-identical.
      for (Vertex v = 0; v < n; ++v) {
        if (cells_[v].epoch == epoch_) continue;
        for (Vertex u : g.neighbors(v)) {
          ++edges_inspected;
          if (test_bit(front_bits_, u)) {
            cells_[v] = Cell{next_dist, epoch_};
            set_bit(next_bits_, v);
            frontier_[tail++] = v;
            const std::uint64_t deg = g.degree(v);
            next_level_degree += deg;
            visited_degree += deg;
            break;  // first in-frontier neighbor suffices: distance only
          }
        }
      }
      std::swap(front_bits_, next_bits_);
      bits_valid = true;
      ++bottom_up_levels;
    } else {
      for (std::size_t i = level_begin; i < level_end; ++i) {
        const Vertex u = frontier_[i];
        edges_inspected += g.degree(u);
        for (Vertex v : g.neighbors(u)) {
          if (cells_[v].epoch != epoch_) {
            cells_[v] = Cell{next_dist, epoch_};
            frontier_[tail++] = v;
            const std::uint64_t deg = g.degree(v);
            next_level_degree += deg;
            visited_degree += deg;
          }
        }
      }
      bits_valid = false;
      ++top_down_levels;
    }

    level_begin = level_end;
    prev_degree = level_degree;
    level_degree = next_level_degree;
    ++depth;
  }
  reached_ = tail;
  complete_ = level_begin == tail;

  if (stats != nullptr) {
    stats->edges_inspected = edges_inspected;
    stats->top_down_levels = top_down_levels;
    stats->bottom_up_levels = bottom_up_levels;
  }
}

void BfsScratch::require_complete(const char* what) const {
  if (!complete_) {
    throw std::logic_error(std::string("bfs_kernel: ") + what +
                           " needs a run that searched the whole component");
  }
}

void BfsScratch::copy_distances(std::span<std::uint32_t> out) const {
  require_complete("copy_distances");
  if (out.size() != n_) {
    throw std::invalid_argument(
        "bfs_kernel: copy_distances size must equal num_vertices");
  }
  std::fill(out.begin(), out.end(), kInfDist);
  for (const Vertex v : reached()) out[v] = cells_[v].dist;
}

void bfs_kernel_into(const Csr& g, Vertex source, std::span<std::uint32_t> dist,
                     BfsScratch& scratch, BfsKernel kernel,
                     BfsKernelStats* stats) {
  scratch.run(g, source, kernel, stats);
  scratch.copy_distances(dist);
}

}  // namespace nas::graph
