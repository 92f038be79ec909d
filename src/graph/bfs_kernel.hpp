// Direction-optimizing BFS kernel — the serving/verification hot loop.
//
// Every answer the system produces (oracle queries, cluster serving, APSP
// rows, and stretch verification over H and over sparse G) bottoms out in
// a single-source BFS over a graph::Csr; stretch verification over a dense
// G runs 64 sources per pass instead (graph/multi_source_bfs.hpp), where
// resolve_bfs_kernel's density rule sends `auto` to hybrid.  This layer
// replaces the plain top-down traversal with a Beamer-style hybrid kernel
// that switches between two strategies per level:
//
//   * top-down:  expand the frontier vertex list, inspecting every edge out
//                of the frontier — cheap while the frontier is small;
//   * bottom-up: scan the *unvisited* vertices and stop at the first
//                neighbor inside the frontier bitmap — cheap on the middle
//                levels of low-diameter graphs (ba, er), where the frontier
//                touches most of the edge set and top-down would inspect
//                nearly all 2m directed entries just to rediscover it.
//
// Switch heuristics: go bottom-up when the edges out of the frontier (m_f)
// exceed the unvisited remainder (m_u) divided by kAlpha, Beamer's rule, and
// the next level, extrapolated from the frontier's growth as
// m^ = min(m_u, m_f^2 / m_prev), would leave fewer unvisited edges than the
// frontier holds (m_u - m^ < m_f).  A bottom-up level inspects every edge
// of each unvisited vertex with no frontier neighbor, so it only pays once
// the next level takes in nearly all of the rest.  Return top-down when the
// frontier shrinks below n / kBeta.  A hybrid run accumulates the degree
// sums while the frontier is built — the Csr offset array is the degree
// prefix, so each discovered vertex adds its degree in O(1) and the
// per-level switch decision is O(1).
//
// Determinism: the kernel exposes *distances only*.  BFS level membership is
// a property of the graph, not of the traversal order, so every kernel —
// and every interleaving of levels — produces byte-identical distance
// arrays.  tests/test_bfs_kernels.cpp checks every kernel against graph::bfs
// rather than trusting the argument, and bench/bfs_kernels fails when a
// kernel's distances diverge from top-down's.
//
// BfsScratch is the reusable per-worker state: each vertex owns one 8-byte
// cell holding its distance and the 16-bit epoch of the run that wrote it,
// so starting a new BFS costs O(1) — a stale epoch reads as unreached —
// instead of an O(n) std::fill, and the neighbor check and the distance
// write of a discovery touch one cache line, not two arrays.  The epoch
// wraps every 2^16 runs; the run that wraps flushes every cell's tag once.
// One scratch per ThreadPool worker makes a sharded loop over sources
// allocation-free after the first source.
//
// A run that resolves to top-down (kTopDown, or kAuto on a sparse graph)
// takes its own level loop: it reads each frontier vertex's neighbor range
// and the neighbors' cells, and nothing else — no degree reads of the
// discovered vertices and no degree sums, which only the hybrid switch
// needs.  How fast that loop runs is set by how scattered the cells of a
// level's neighbors are; callers that run many BFS over one graph relabel
// it in its BFS order first (Csr::relabel_bfs_order, used by the oracle
// and the verifier), which puts each level's cells on few cache lines.
//
// A targeted search answers a few distances without a full pass:
// run(g, s, targets) is the same BFS, stopped at the end of the level that
// reaches the last target.  The stop is tested between levels only, so the
// per-level loops are the full run's.  A truncated search can never become
// a cached row: after a run that stopped before its frontier emptied,
// copy_distances() throws std::logic_error.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace nas::graph {

/// Traversal strategy for the CSR BFS hot loop.
enum class BfsKernel {
  kTopDown,  ///< classic level-synchronous frontier expansion
  kHybrid,   ///< per-level top-down <-> bottom-up switching
  kAuto,     ///< hybrid on dense-enough graphs, top-down otherwise
};

/// The kernel's name: "topdown" | "hybrid" | "auto".
[[nodiscard]] const char* bfs_kernel_name(BfsKernel kernel);

/// The kernel a run over `g` takes: kAuto becomes kHybrid when g's average
/// directed degree is at least 5 (the density rule), kTopDown otherwise;
/// the other kernels resolve to themselves.  The verifier reads the same
/// rule to decide where multi-source passes pay (see MultiSourceBfs).
[[nodiscard]] BfsKernel resolve_bfs_kernel(BfsKernel kernel, const Csr& g);

/// Per-run traversal counters.  `edges_inspected` is the kernel's work
/// measure — every neighbor peek counts once, in either direction — and is
/// what BENCH_bfs.json tracks (wall-clock is meaningless on shared runners;
/// edge inspections are deterministic).
struct BfsKernelStats {
  std::uint64_t edges_inspected = 0;
  std::uint32_t top_down_levels = 0;
  std::uint32_t bottom_up_levels = 0;
};

/// Reusable BFS state: one {distance, epoch} cell per vertex, the two
/// bitmap frontiers the bottom-up steps test against, and the frontier
/// vector (which doubles as the visit-order record of every vertex reached
/// by the current run).  Create one per worker and reuse it across sources;
/// after the first run on a given vertex count, run() allocates nothing.
class BfsScratch {
 public:
  /// Runs a single-source BFS over `g` with the requested kernel.
  /// Distances are readable through distance()/copy_distances() until the
  /// next run() on this scratch.  Throws std::invalid_argument when
  /// `source` is out of range.
  void run(const Csr& g, Vertex source, BfsKernel kernel = BfsKernel::kAuto,
           BfsKernelStats* stats = nullptr);

  /// The same BFS, stopped at the end of the first level by which every
  /// vertex in `targets` has been reached (duplicates and the source itself
  /// are allowed).  distance() is exact wherever it is finite, so it is
  /// exact for every target; a target outside the source's component reads
  /// kInfDist, and the run then exhausts that component.  Throws
  /// std::invalid_argument when the source or a target is out of range.
  void run(const Csr& g, Vertex source, std::span<const Vertex> targets,
           BfsKernel kernel = BfsKernel::kAuto,
           BfsKernelStats* stats = nullptr);

  /// d(source, v) of the last run; kInfDist when v was not reached.
  [[nodiscard]] std::uint32_t distance(Vertex v) const {
    return cells_[v].epoch == epoch_ ? cells_[v].dist : kInfDist;
  }

  /// Materializes the full distance array of the last run into `out`
  /// (size must be the graph's vertex count; kInfDist where unreachable).
  /// Throws std::logic_error when the last run stopped at its targets
  /// before exhausting the component.
  void copy_distances(std::span<std::uint32_t> out) const;

  /// Every vertex reached by the last run, in discovery order (the source
  /// first).  Iterating this instead of [0, n) keeps per-component loops
  /// O(active).
  [[nodiscard]] std::span<const Vertex> reached() const {
    return {frontier_.data(), reached_};
  }

  /// Vertex count the scratch is currently sized for.
  [[nodiscard]] Vertex num_vertices() const { return n_; }

 private:
  /// A vertex's BFS state: `dist` is valid iff `epoch` is the scratch's.
  struct Cell {
    std::uint32_t dist = 0;
    std::uint16_t epoch = 0;
  };

  /// Starts a run from `source` and hands it to the level loop its
  /// resolved kernel selects.
  void run_levels(const Csr& g, Vertex source, BfsKernel kernel,
                  BfsKernelStats* stats, std::span<const Vertex> targets,
                  bool stop_at_targets);
  /// Sizes the state for `g`, opens a new epoch and seeds `source`.
  void start(const Csr& g, Vertex source);
  void run_top_down(const Csr& g, BfsKernelStats* stats,
                    std::span<const Vertex> targets, bool stop_at_targets);
  void run_hybrid(const Csr& g, BfsKernelStats* stats,
                  std::span<const Vertex> targets, bool stop_at_targets);
  /// Between levels: whether every target is reached (advances the count
  /// of targets already known reached).
  bool targets_done(std::span<const Vertex> targets);
  void require_complete(const char* what) const;

  Vertex n_ = 0;
  std::vector<Cell> cells_;
  std::uint16_t epoch_ = 0;  // wraps; start() flushes the tags on the wrap
  bool complete_ = false;  // the last run went on until its frontier emptied
  std::size_t targets_reached_ = 0;  // targets[0, this) are marked
  std::vector<std::uint64_t> front_bits_;  // current-level bitmap (bottom-up)
  std::vector<std::uint64_t> next_bits_;   // next-level bitmap (bottom-up)
  std::vector<Vertex> frontier_;  // n slots: reached vertices in visit order
  std::size_t reached_ = 0;       // frontier_[0, reached_) is the last run's
};

/// Single-source BFS into a caller-owned buffer: fills `dist` (size n) with
/// d(source, ·), kInfDist where unreachable, byte-identical to graph::bfs
/// for every kernel.  `scratch` is reused across calls.
void bfs_kernel_into(const Csr& g, Vertex source, std::span<std::uint32_t> dist,
                     BfsScratch& scratch,
                     BfsKernel kernel = BfsKernel::kAuto,
                     BfsKernelStats* stats = nullptr);

}  // namespace nas::graph
