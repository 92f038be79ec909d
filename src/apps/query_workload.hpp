// Deterministic query-workload generation for the distance-oracle serving
// layer.
//
// The ROADMAP north star is serving heavy traffic; real traffic is not
// uniform — a few sources are hot (think landmark pages, popular users), and
// that skew is exactly what a bounded source cache exploits.  Two request
// distributions cover both ends:
//
//   * "uniform": both endpoints drawn uniformly from [0, n).  Worst case for
//     the cache (every source about equally likely).
//   * "zipf":    the source is drawn from a Zipf(theta) distribution over a
//     seed-dependent permutation of the vertices (so the hot set is not just
//     the low IDs); the target stays uniform.  Models heavy-traffic skew —
//     theta around 1 gives the classic "few sources dominate" shape.
//
// Everything is generated with the repo's own Xoshiro256/Fisher-Yates
// primitives — no std::shuffle, no std::discrete_distribution.  The
// "uniform" stream is pure integer arithmetic and produces the same bytes
// on every platform and stdlib; "zipf" additionally goes through std::pow
// when building the CDF, so its stream is deterministic for a fixed libm
// but may differ across libm implementations (which is why the golden-sink
// corpus restricts itself to uniform).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "graph/graph.hpp"

namespace nas::apps {

struct WorkloadSpec {
  std::string dist = "uniform";  ///< "uniform" | "zipf"
  std::uint64_t queries = 1000;  ///< batch size
  std::uint64_t seed = 1;
  double zipf_theta = 0.99;      ///< zipf skew exponent (ignored for uniform)
};

/// Generates `spec.queries` requests over vertices [0, n).  Deterministic in
/// (n, spec); throws std::invalid_argument on an unknown distribution name,
/// n == 0, or a non-positive zipf theta.
[[nodiscard]] std::vector<Query> make_query_workload(graph::Vertex n,
                                                     const WorkloadSpec& spec);

/// Reads "u v" request lines ('#' comments, blank lines allowed) on the
/// scanner behind graph::read_edge_list (graph::PairScanner), so both
/// accept the same numbers, whitespace and comments.  A line that is not
/// two unsigned 32-bit decimal numbers (a sign, an overflow, a third token)
/// throws std::runtime_error "<name>: malformed query line (expected 'u v')
/// at line N".  Endpoints are not checked against a graph here; the oracle
/// does that.
[[nodiscard]] std::vector<Query> read_queries(std::istream& in,
                                              const std::string& name);
/// read_queries over the file at `path` (errors name the path).  Shared by
/// nas_serve and bench/serve_latency so both accept the same files.
[[nodiscard]] std::vector<Query> read_query_file(const std::string& path);

/// Writes one "u v d" line per request in request order ("inf" for
/// disconnected pairs).  This is the serving CLIs' answer format; CI's
/// cross-shard/cross-thread cmp gates compare these bytes.
void write_answers(const std::vector<Query>& queries,
                   const std::vector<std::uint32_t>& answers,
                   std::ostream& out);

}  // namespace nas::apps
