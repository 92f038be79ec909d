#include "core/elkin_matar.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/interconnect.hpp"
#include "core/popular.hpp"
#include "core/ruling_set.hpp"
#include "core/supercluster.hpp"
#include "graph/bfs.hpp"

namespace nas::core {

using graph::Graph;
using graph::kInfDist;
using graph::kInvalidVertex;
using graph::Vertex;

namespace {

/// Theorem 2.2 validation: rulers pairwise ≥ q+1 apart, and every vertex of
/// `w` within q·c of some ruler.  Uses one multi-source BFS (O(m)) — two
/// rulers closer than q+1 force an edge whose endpoints' BFS regions meet
/// "too early".
void check_ruling_contract(const Graph& g, const std::vector<Vertex>& w,
                           const std::vector<Vertex>& rulers, std::uint64_t q,
                           int c, PhaseTrace& pt) {
  if (rulers.empty()) {
    pt.separation_ok = true;
    pt.domination_ok = w.empty();
    return;
  }
  const auto bfs = graph::multi_source_bfs(g, rulers);
  // Separation: if d(r1, r2) <= q for distinct rulers, some edge (u, v) on a
  // shortest r1-r2 path has root[u] != root[v] and dist[u]+dist[v]+1 <= q.
  pt.separation_ok = true;
  for (Vertex u = 0; u < g.num_vertices() && pt.separation_ok; ++u) {
    if (bfs.dist[u] == kInfDist) continue;
    for (Vertex v : g.neighbors(u)) {
      if (v < u || bfs.dist[v] == kInfDist) continue;
      if (bfs.root[u] != bfs.root[v] &&
          static_cast<std::uint64_t>(bfs.dist[u]) + bfs.dist[v] + 1 <= q) {
        pt.separation_ok = false;
        break;
      }
    }
  }
  pt.domination_ok = true;
  const std::uint64_t radius = q * static_cast<std::uint64_t>(c);
  for (Vertex x : w) {
    if (bfs.dist[x] == kInfDist || bfs.dist[x] > radius) {
      pt.domination_ok = false;
      break;
    }
  }
}

/// BuildOptions::cross_check_alg1: the event-driven Algorithm 1 must match
/// the exact engine-backed reference execution bit-for-bit, knowledge, round
/// and message charge alike.  The reference is verification work, so it is
/// not charged to the run's ledger.
void check_alg1_reference(const Graph& g, const std::vector<Vertex>& centers,
                          std::uint64_t delta, std::uint64_t cap,
                          const Algorithm1Result& fast, int phase) {
  const Algorithm1Result exact =
      run_algorithm1_exact(g, centers, delta, cap, nullptr);
  if (fast.rounds_charged != exact.rounds_charged) {
    throw std::logic_error(
        "Algorithm 1 cross-check failed in phase " + std::to_string(phase) +
        ": " + std::to_string(fast.rounds_charged) + " rounds charged, the"
        " engine ran " + std::to_string(exact.rounds_charged));
  }
  if (fast.messages != exact.messages) {
    throw std::logic_error(
        "Algorithm 1 cross-check failed in phase " + std::to_string(phase) +
        ": " + std::to_string(fast.messages) + " messages charged, the engine"
        " sent " + std::to_string(exact.messages));
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    bool ok = fast.knowledge[v].size() == exact.knowledge[v].size() &&
              fast.popular[v] == exact.popular[v];
    for (std::size_t i = 0; ok && i < fast.knowledge[v].size(); ++i) {
      ok = fast.knowledge[v][i].origin == exact.knowledge[v][i].origin &&
           fast.knowledge[v][i].dist == exact.knowledge[v][i].dist &&
           fast.knowledge[v][i].parent == exact.knowledge[v][i].parent;
    }
    if (!ok) {
      throw std::logic_error(
          "Algorithm 1 cross-check failed in phase " + std::to_string(phase) +
          " at vertex " + std::to_string(v));
    }
  }
}

/// Lemma 2.3 validation: every member of a live cluster is within R_{i+1}
/// of its center *inside the spanner built so far*.
void check_radius(const graph::EdgeSet& H, const ClusterState& clusters,
                  std::uint64_t bound, PhaseTrace& pt) {
  const Graph h = H.to_graph();
  pt.measured_max_radius = 0;
  pt.radius_ok = true;
  for (Vertex c : clusters.centers()) {
    const auto res = graph::bfs(h, c);
    for (Vertex v : clusters.members(c)) {
      if (res.dist[v] == kInfDist) {
        pt.radius_ok = false;
        return;
      }
      pt.measured_max_radius =
          std::max<std::uint64_t>(pt.measured_max_radius, res.dist[v]);
    }
  }
  if (pt.measured_max_radius > bound) pt.radius_ok = false;
}

}  // namespace

SpannerResult build_spanner(const Graph& g, const Params& params,
                            const BuildOptions& options) {
  if (params.n() != g.num_vertices()) {
    throw std::invalid_argument("build_spanner: params built for different n");
  }
  SpannerResult result(g.num_vertices(), params);
  ClusterState& clusters = result.clusters;
  congest::Ledger& ledger = result.ledger;

  const int ell = params.ell();
  for (int i = 0; i <= ell; ++i) {
    const PhaseSchedule& sched = params.phase(i);
    PhaseTrace pt;
    pt.index = i;
    pt.delta = sched.delta;
    pt.forest_depth = sched.forest_depth;
    pt.radius_bound = sched.radius;
    pt.radius_bound_next = sched.radius_next;

    const std::vector<Vertex> centers = clusters.centers();
    pt.num_clusters = centers.size();

    // Concluding phase: the knowledge cap must cover every center, so that
    // Lemma 2.14 (complete interconnection) holds even when rounding makes
    // |P_ell| exceed n^rho (see README, "Deviations from the paper").  The
    // centers can compute |P_ell| with one O(diameter)-round aggregation,
    // charged here.
    std::uint64_t cap = sched.deg;
    if (sched.concluding) {
      cap = std::max<std::uint64_t>(cap, centers.size());
      // One broadcast + one convergecast over a BFS tree of G; depth is at
      // most n, so 2n rounds is a safe (and cheap relative to δ_ℓ·deg_ℓ)
      // charge for letting the centers learn |P_ℓ|.
      ledger.begin_section("phase " + std::to_string(i) + " count clusters");
      ledger.charge_rounds(2 * static_cast<std::uint64_t>(g.num_vertices()));
    }
    pt.deg = cap;

    // --- Algorithm 1: detect popular clusters -----------------------------
    ledger.begin_section("phase " + std::to_string(i) + " algorithm1");
    const Algorithm1Result alg1 =
        run_algorithm1(g, centers, sched.delta, cap, &ledger);
    pt.rounds_alg1 = alg1.rounds_charged;

    if (options.cross_check_alg1) {
      check_alg1_reference(g, centers, sched.delta, cap, alg1, i);
    }

    std::vector<Vertex> popular;
    for (Vertex rc : centers) {
      if (alg1.popular[rc]) popular.push_back(rc);
    }
    pt.num_popular = popular.size();

    std::vector<Vertex> u_centers;
    if (!sched.concluding) {
      // --- Ruling set over the popular centers ---------------------------
      ledger.begin_section("phase " + std::to_string(i) + " ruling set");
      const RulingSetResult ruling = compute_ruling_set(
          g, popular, sched.q, params.c(), params.ruling_base(), &ledger);
      pt.num_rulers = ruling.rulers.size();
      pt.rounds_ruling = ruling.rounds_charged;

      if (options.validate) {
        check_ruling_contract(g, popular, ruling.rulers, sched.q, params.c(), pt);
        if (!pt.separation_ok || !pt.domination_ok) {
          throw std::logic_error("Theorem 2.2 violated in phase " +
                                 std::to_string(i));
        }
      }

      // --- Superclustering ------------------------------------------------
      ledger.begin_section("phase " + std::to_string(i) + " superclustering");
      const SuperclusterResult super =
          build_superclusters(g, clusters, ruling.rulers, sched.forest_depth,
                              sched.radius, result.edges, &ledger);
      pt.num_superclustered = super.superclustered_centers.size();
      pt.edges_super = super.edges_added;
      pt.rounds_super = super.rounds_charged;

      // Lemma 2.4: every popular center must have been spanned.
      pt.popular_covered_ok = true;
      for (Vertex rc : popular) {
        if (super.forest_root[rc] == kInvalidVertex) {
          pt.popular_covered_ok = false;
        }
      }
      if (!pt.popular_covered_ok) {
        throw std::logic_error("Lemma 2.4 violated in phase " +
                               std::to_string(i));
      }

      // U_i: centers of P_i that were not superclustered.
      for (Vertex rc : centers) {
        if (super.forest_root[rc] == kInvalidVertex) u_centers.push_back(rc);
      }

      if (options.validate) {
        check_radius(result.edges, clusters, sched.radius_next, pt);
        if (!pt.radius_ok) {
          throw std::logic_error("Lemma 2.3 violated in phase " +
                                 std::to_string(i));
        }
      }
    } else {
      // Concluding phase: no superclustering; every cluster interconnects.
      u_centers = centers;
      pt.num_rulers = 0;
      pt.num_superclustered = 0;
    }
    pt.num_settled = u_centers.size();

    // --- Interconnection ---------------------------------------------------
    ledger.begin_section("phase " + std::to_string(i) + " interconnection");
    const InterconnectResult inter = interconnect(
        g, u_centers, alg1, sched.delta, cap, result.edges, &ledger);
    pt.edges_inter = inter.edges_added;
    pt.paths_inter = inter.paths_installed;
    pt.max_inter_path = inter.max_path_length;
    pt.rounds_inter = inter.rounds_charged;

    // Clusters of U_i settle: they leave the active collection for good
    // (Lemma 2.6: the U_i form a partition of the settled vertices).
    for (Vertex rc : u_centers) clusters.settle_cluster(rc, i);

    result.trace.phases.push_back(pt);
  }

  // Corollary 2.5: after the concluding phase every vertex is settled.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (clusters.is_active(v) || clusters.settled_phase(v) < 0) {
      throw std::logic_error("Corollary 2.5 violated: vertex " +
                             std::to_string(v) + " not settled");
    }
  }

  result.spanner = result.edges.to_graph();
  return result;
}

}  // namespace nas::core
