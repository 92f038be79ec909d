#include "verify/stretch.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/bfs_kernel.hpp"
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

/// Per-shard scratch: one direction-optimizing BfsScratch per graph, reused
/// across the shard's sources, so a shard of k sources costs zero
/// allocations after its first source and resets distances in O(active)
/// per source instead of two O(n) fills.
struct Scratch {
  graph::BfsScratch dg;
  graph::BfsScratch dh;
};

/// `g` and `h` are the input graphs relabelled by the one permutation
/// `to_new`; `s` and every v below are input IDs, so pairs are accumulated
/// in input vertex order whatever the labelling the searches ran on.
SourceAccum accumulate_source(const graph::Csr& g, const graph::Csr& h,
                              std::span<const Vertex> to_new, Vertex s,
                              double m, double a, Scratch& scratch) {
  scratch.dg.run(g, to_new[s], graph::BfsKernel::kAuto);
  scratch.dh.run(h, to_new[s], graph::BfsKernel::kAuto);
  SourceAccum acc;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t dgv = scratch.dg.distance(to_new[v]);
    if (v == s || dgv == kInfDist) continue;
    ++acc.pairs;
    const std::uint32_t dhv = scratch.dh.distance(to_new[v]);
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
  // Convert both adjacencies to CSR once, relabelled in G's BFS order (H
  // by the same permutation), and run every BFS on the flat arrays: each
  // level's cells then sit on few cache lines.  Distances do not depend on
  // the labelling, and accumulate_source reads them back in input order,
  // so the report is bit-identical to a search in input order.
  const auto gc = graph::Csr::from_graph(g).relabel_bfs_order();
  const graph::Csr hc = graph::Csr::from_graph(h).relabel(gc.to_new);
  std::vector<SourceAccum> partials(sources.size());
  util::ThreadPool::run_sharded(
      sources.size(), threads, [&](std::size_t begin, std::size_t end) {
        Scratch scratch;
        for (std::size_t i = begin; i < end; ++i) {
          partials[i] = accumulate_source(gc.csr, hc, gc.to_new, sources[i],
                                          m, a, scratch);
        }
      });

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
