#include "verify/stretch.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/bfs_kernel.hpp"
#include "graph/csr.hpp"
#include "graph/multi_source_bfs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nas::verify {

using graph::Graph;
using graph::kInfDist;
using graph::Vertex;

namespace {

/// Everything one source contributes to the report.  A partial is computed
/// identically no matter which worker runs it, and partials are merged in
/// source order — that is the whole determinism argument for the sharded
/// verifier.
struct SourceAccum {
  std::uint64_t pairs = 0;
  std::uint64_t disconnected = 0;  // d_G finite but d_H infinite
  std::uint64_t violations = 0;    // excess beyond A (+ float tolerance)
  double max_mult = 1.0;
  double mult_sum = 0.0;
  std::uint64_t mult_count = 0;
  std::uint64_t max_additive = 0;
  double max_excess = 0.0;  // worst_* is a real witness iff this is > 0
  Vertex worst_v = graph::kInvalidVertex;
  std::uint32_t worst_dg = 0;
  std::uint32_t worst_dh = 0;
};

/// The pairs (s, v) of source `s`, accumulated in input vertex order: the
/// H search runs on `dh` over H relabelled in its own BFS order, and `dg(v)`
/// is d_G(s, v), kInfDist where v is unreachable; s and v are input IDs.
template <class DistG>
SourceAccum accumulate_source(const graph::RelabelledCsr& h, Vertex s,
                              double m, double a, DistG dg,
                              graph::BfsScratch& dh) {
  dh.run(h.csr, h.to_new[s], graph::BfsKernel::kAuto);
  SourceAccum acc;
  for (Vertex v = 0; v < h.csr.num_vertices(); ++v) {
    const std::uint32_t dgv = dg(v);
    if (v == s || dgv == kInfDist) continue;
    ++acc.pairs;
    const std::uint32_t dhv = dh.distance(h.to_new[v]);
    if (dhv == kInfDist) {
      ++acc.disconnected;
      continue;
    }
    const double ratio = static_cast<double>(dhv) / static_cast<double>(dgv);
    acc.max_mult = std::max(acc.max_mult, ratio);
    acc.mult_sum += ratio;
    ++acc.mult_count;
    acc.max_additive = std::max<std::uint64_t>(acc.max_additive,
                                               dhv - std::min(dhv, dgv));
    const double excess =
        static_cast<double>(dhv) - m * static_cast<double>(dgv);
    if (excess > acc.max_excess) {
      acc.max_excess = excess;
      acc.worst_v = v;
      acc.worst_dg = dgv;
      acc.worst_dh = dhv;
    }
    if (excess > a + 1e-9) ++acc.violations;
  }
  return acc;
}

/// Shared driver behind the exact and sampled entry points: per-source
/// partials (sharded across a worker pool when threads != 1), then a
/// deterministic merge in source order with first-wins tie-breaking on the
/// worst pair.
StretchReport verify_over_sources(const Graph& g, const Graph& h,
                                  const std::vector<Vertex>& sources, double m,
                                  double a, unsigned threads) {
  if (g.num_vertices() != h.num_vertices()) {
    throw std::invalid_argument("verify_stretch: vertex count mismatch");
  }
  // Each graph is searched relabelled in its own BFS order, so each level's
  // cells sit on few cache lines.  Distances do not depend on the
  // labelling, and accumulate_source reads them back through each graph's
  // to_new in input order, so the report is bit-identical to a search in
  // input order.
  const auto gc = graph::Csr::from_graph(g).relabel_bfs_order();
  const auto hc = graph::Csr::from_graph(h).relabel_bfs_order();
  const Vertex n = g.num_vertices();
  std::vector<SourceAccum> partials(sources.size());
  if (lanes_pay(gc.csr)) {
    // Sources in fixed groups of 64, one multi-source pass over G per
    // group, taken in the order of the sources' IDs in G's BFS order: a
    // group's sources then lie near each other, and their lanes reach more
    // vertices on the same level, so they share more edge scans than
    // sources taken in input order.  The sources are distinct, so the
    // groups are fixed by them alone; shards are groups, so no partial
    // depends on the thread count.
    constexpr std::size_t kLanes = graph::MultiSourceBfs::kMaxLanes;
    std::vector<std::size_t> by_bfs_id(sources.size());
    std::iota(by_bfs_id.begin(), by_bfs_id.end(), std::size_t{0});
    std::sort(by_bfs_id.begin(), by_bfs_id.end(),
              [&](std::size_t x, std::size_t y) {
                return gc.to_new[sources[x]] < gc.to_new[sources[y]];
              });
    const std::size_t groups = (sources.size() + kLanes - 1) / kLanes;
    util::ThreadPool::run_sharded(
        groups, threads, [&](std::size_t begin, std::size_t end) {
          graph::MultiSourceBfs pass;
          graph::BfsScratch dh;
          std::vector<Vertex> lanes;
          std::vector<std::uint16_t> rows;
          for (std::size_t group = begin; group < end; ++group) {
            const std::size_t first = group * kLanes;
            const std::span members(by_bfs_id.data() + first,
                                    std::min(kLanes, sources.size() - first));
            lanes.clear();
            for (const std::size_t i : members) {
              lanes.push_back(gc.to_new[sources[i]]);
            }
            rows.resize(lanes.size() * n);
            pass.run(gc.csr, lanes, rows);
            for (std::size_t lane = 0; lane < members.size(); ++lane) {
              const std::uint16_t* row = rows.data() + lane * n;
              const auto dg = [&](Vertex v) -> std::uint32_t {
                const std::uint16_t d = row[gc.to_new[v]];
                return d == graph::MultiSourceBfs::kUnreached ? kInfDist : d;
              };
              const std::size_t i = members[lane];
              partials[i] = accumulate_source(hc, sources[i], m, a, dg, dh);
            }
          }
        });
  } else {
    util::ThreadPool::run_sharded(
        sources.size(), threads, [&](std::size_t begin, std::size_t end) {
          graph::BfsScratch dg_scratch;
          graph::BfsScratch dh;
          const auto dg = [&](Vertex v) {
            return dg_scratch.distance(gc.to_new[v]);
          };
          for (std::size_t i = begin; i < end; ++i) {
            dg_scratch.run(gc.csr, gc.to_new[sources[i]],
                           graph::BfsKernel::kAuto);
            partials[i] = accumulate_source(hc, sources[i], m, a, dg, dh);
          }
        });
  }

  StretchReport rep;
  double mult_sum = 0.0;
  std::uint64_t mult_count = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const SourceAccum& sa = partials[i];
    rep.pairs_checked += sa.pairs;
    if (sa.disconnected > 0) {
      rep.connectivity_ok = false;
      rep.bound_ok = false;
    }
    if (sa.violations > 0) rep.bound_ok = false;
    rep.max_multiplicative = std::max(rep.max_multiplicative, sa.max_mult);
    mult_sum += sa.mult_sum;
    mult_count += sa.mult_count;
    rep.max_additive = std::max(rep.max_additive, sa.max_additive);
    if (sa.max_excess > rep.max_excess) {
      rep.max_excess = sa.max_excess;
      rep.worst_u = sources[i];
      rep.worst_v = sa.worst_v;
      rep.worst_dg = sa.worst_dg;
      rep.worst_dh = sa.worst_dh;
    }
  }
  rep.mean_multiplicative = mult_count ? mult_sum / mult_count : 1.0;
  return rep;
}

}  // namespace

bool lanes_pay(const graph::Csr& g) {
  return g.num_vertices() <= graph::MultiSourceBfs::kMaxVertices &&
         graph::resolve_bfs_kernel(graph::BfsKernel::kAuto, g) ==
             graph::BfsKernel::kHybrid;
}

bool bit_identical(const StretchReport& a, const StretchReport& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.bound_ok == b.bound_ok && a.connectivity_ok == b.connectivity_ok &&
         a.pairs_checked == b.pairs_checked &&
         bits(a.max_multiplicative) == bits(b.max_multiplicative) &&
         bits(a.mean_multiplicative) == bits(b.mean_multiplicative) &&
         a.max_additive == b.max_additive &&
         bits(a.max_excess) == bits(b.max_excess) && a.worst_u == b.worst_u &&
         a.worst_v == b.worst_v && a.worst_dg == b.worst_dg &&
         a.worst_dh == b.worst_dh;
}

StretchReport verify_stretch_exact(const Graph& g, const Graph& h, double m,
                                   double a, unsigned threads) {
  std::vector<Vertex> sources(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) sources[v] = v;
  return verify_over_sources(g, h, sources, m, a, threads);
}

StretchReport verify_stretch_sampled(const Graph& g, const Graph& h, double m,
                                     double a, std::uint32_t num_sources,
                                     std::uint64_t seed, unsigned threads) {
  const Vertex n = g.num_vertices();
  util::Xoshiro256 rng(seed);
  std::vector<Vertex> sources;
  if (num_sources >= n) {
    for (Vertex v = 0; v < n; ++v) sources.push_back(v);
  } else {
    std::vector<std::uint8_t> picked(n, 0);
    while (sources.size() < num_sources) {
      const auto s = static_cast<Vertex>(rng.below(n));
      if (!picked[s]) {
        picked[s] = 1;
        sources.push_back(s);
      }
    }
    std::sort(sources.begin(), sources.end());
  }
  return verify_over_sources(g, h, sources, m, a, threads);
}

}  // namespace nas::verify
