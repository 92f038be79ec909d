// The Elkin-Matar deterministic CONGEST near-additive spanner (the paper's
// primary contribution, Section 2).
//
// Usage:
//   auto params  = nas::core::Params::practical(g.num_vertices(), 0.25, 3, 0.4);
//   auto result  = nas::core::build_spanner(g, params);
//   // result.spanner is (V, H); result.params.stretch_multiplicative() /
//   // stretch_additive() give the proven stretch; result.ledger.rounds()
//   // is the simulated CONGEST round count.
#pragma once

#include <cstdint>

#include "congest/ledger.hpp"
#include "core/cluster.hpp"
#include "core/params.hpp"
#include "core/trace.hpp"
#include "graph/graph.hpp"

namespace nas::core {

struct BuildOptions {
  /// Verify the paper's structural lemmas during the run (Lemma 2.3 radii,
  /// Lemma 2.4 coverage, Theorem 2.2 separation/domination).  Violations
  /// throw std::logic_error.  Costs extra centralized BFS work; disable for
  /// large-scale benches.
  bool validate = true;

  /// Re-run each phase's Algorithm 1 on the exact round engine
  /// (congest::Engine) and require the event-driven result to match
  /// bit-for-bit (knowledge lists and popularity).  Mismatches throw
  /// std::logic_error.  Expensive: the reference simulates every round.
  bool cross_check_alg1 = false;
};

struct SpannerResult {
  graph::EdgeSet edges;     ///< the spanner edge set H
  graph::Graph spanner;     ///< (V, H) as an adjacency structure
  Params params;            ///< the schedule the run used
  congest::Ledger ledger;   ///< simulated CONGEST cost, per-section breakdown
  Trace trace;              ///< per-phase structure/cost instrumentation
  ClusterState clusters;    ///< final settle assignment (U_i partition)

  SpannerResult(graph::Vertex n, Params p)
      : edges(n), params(std::move(p)), clusters(n) {}
};

/// Runs the full construction on `g` with schedule `params`.
/// `params.n()` must equal `g.num_vertices()`.
[[nodiscard]] SpannerResult build_spanner(const graph::Graph& g,
                                          const Params& params,
                                          const BuildOptions& options = {});

}  // namespace nas::core
