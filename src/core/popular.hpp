// Algorithm 1 (paper, Appendix A): detecting popular clusters.
//
// A modified multi-source BFS from every cluster center r_C ∈ S_i, running
// for δ_i distance-layers of deg_i rounds each.  Every vertex maintains a
// list of the first `cap = deg_i` centers it learns about, together with the
// exact distance and the neighbor that delivered the message (so shortest
// paths can be traced back later).  Per layer, a vertex forwards the (at
// most cap) newly accepted origins to all its neighbors; origins that do not
// fit in the list are discarded and never forwarded — this is the paper's
// "arbitrarily choose deg_i" rule made deterministic by preferring smaller
// origin IDs.
//
// Contract (Theorem 2.1 / Lemma A.1), verified by the test suite:
//   1. After the run each vertex u knows at least
//      min(cap, |Γ^(δ)(u) ∩ S|) centers, at exact shortest distances.
//   2. A center is *popular* iff it learned about ≥ cap other centers;
//      an unpopular center knows ALL centers within δ and, for each, every
//      vertex on a shortest path towards it knows its own distance and
//      parent (trace-back property).
//   3. Round cost: 1 + δ·cap (layer 0 is a single round; each of the δ
//      forwarding layers takes cap rounds).  Each edge-direction carries at
//      most `cap` messages per layer — the CONGEST capacity invariant for
//      the cap-round window, checked against the ledger.
//
// Two implementations:
//   * run_algorithm1       — event-driven (layered), fast; charges rounds per
//                            the schedule above and messages per sender as
//                            (origins forwarded) × degree.  Each layer is a
//                            receiver-side scan: every vertex that has a
//                            sending neighbor and a list that is not full
//                            walks its neighbors in ascending ID over a flat
//                            array of the senders' new origins, stamps the
//                            origins it already knows in an n-entry mark
//                            array, keeps the first sender of each new
//                            origin as its parent, and takes the smallest
//                            new origins that fit.  No message is
//                            materialized: memory is O(n + Σ|knowledge|).
//   * run_algorithm1_exact — executes on the exact per-round CONGEST engine;
//                            used by the tests and the build cross-check to
//                            validate the event-driven knowledge and message
//                            count bit-for-bit on small inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/engine.hpp"
#include "congest/ledger.hpp"
#include "graph/graph.hpp"

namespace nas::core {

/// One learned (origin, distance, parent) record at a vertex.
struct Knowledge {
  graph::Vertex origin = graph::kInvalidVertex;
  std::uint32_t dist = 0;
  graph::Vertex parent = graph::kInvalidVertex;  // neighbor towards origin
};

struct Algorithm1Result {
  /// knowledge[v]: accepted records, in acceptance order (layer, then origin
  /// ID).  Size is at most `cap`.  A center never records itself.
  std::vector<std::vector<Knowledge>> knowledge;
  /// popular[v] is meaningful only for v ∈ sources: true iff v accepted
  /// `cap` records (i.e. learned ≥ cap other centers within δ).
  std::vector<std::uint8_t> popular;
  std::uint64_t rounds_charged = 0;
  std::uint64_t messages = 0;
  /// Worst per-edge-direction message count within one layer (must be ≤ cap).
  std::uint64_t max_edge_layer_load = 0;
};

/// Event-driven execution.  `sources` are the cluster centers S_i; `delta`
/// and `cap` are δ_i and deg_i.  Rounds are charged to `ledger` if non-null.
/// Both executions throw std::invalid_argument on delta == 0, cap == 0, or
/// a source that is out of range or listed twice.
[[nodiscard]] Algorithm1Result run_algorithm1(
    const graph::Graph& g, const std::vector<graph::Vertex>& sources,
    std::uint64_t delta, std::uint64_t cap,
    congest::Ledger* ledger = nullptr);

/// Exact reference on congest::Engine (1 + δ·cap real simulated rounds, the
/// event-driven charge); used by the tests and by build_spanner's
/// cross-check mode.
[[nodiscard]] Algorithm1Result run_algorithm1_exact(
    const graph::Graph& g, const std::vector<graph::Vertex>& sources,
    std::uint64_t delta, std::uint64_t cap,
    congest::Ledger* ledger = nullptr);

/// Convenience: looks up `origin` in knowledge[v]; returns nullptr if absent.
[[nodiscard]] const Knowledge* find_knowledge(
    const std::vector<Knowledge>& list, graph::Vertex origin);

}  // namespace nas::core
