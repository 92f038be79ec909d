// Benchmark inputs, generated from the workload seed by the benchmark's own
// code: the random geometric graph, the request streams, and the reference
// answers they are checked against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace bench {

/// One input size.  `full` is what BENCHMARK.json runs; `smoke` is a tiny
/// copy of every workload for the benchmark's own tests.
struct Size {
  std::string name;
  std::uint32_t n = 0;                ///< target vertex count
  std::uint32_t batch = 0;            ///< pairs per BATCH command
  std::uint32_t uniform_warm = 0;     ///< warm-up prefix, in commands
  std::uint32_t uniform_commands = 0; ///< stream after the prefix
  std::uint32_t hot = 0;              ///< hot-set size
  std::uint32_t hot_commands = 0;     ///< single-pair stream length
  std::uint32_t verify_sources = 0;   ///< sampled stretch-check sources
  std::uint32_t construct_queries = 0;  ///< in-process queries after reload
  std::uint32_t trace_batch_commands = 0;   ///< traced window, BATCH stream
  std::uint32_t trace_single_commands = 0;  ///< traced window, Q stream
  std::uint32_t min_timed_commands = 0;  ///< p99 needs >= 10 beyond it
};
[[nodiscard]] Size size_named(const std::string& name);

// --- graph -------------------------------------------------------------------

struct EdgeList {
  std::uint32_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  ///< u < v
};

/// Random geometric graph like the repo's `geometric` family: n points in
/// the unit square, an edge iff distance <= 1.6 sqrt(ln n / (pi n)) (average
/// degree 2.56 ln n, about 24.8 at n = 16384), restricted to its largest
/// component and relabelled in increasing vertex order.
[[nodiscard]] EdgeList make_geometric(std::uint32_t n, std::uint64_t seed);
void write_edge_list(const EdgeList& g, const std::string& path);

// --- request streams ---------------------------------------------------------

struct Pair {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
};

/// A command sequence: BATCH commands of `batch` pairs, or single Q lines.
struct Commands {
  bool single = false;
  std::vector<Pair> pairs;
  /// Command i holds pairs [start[i], start[i+1]).
  std::vector<std::uint32_t> start{0};

  [[nodiscard]] std::size_t size() const { return start.size() - 1; }
  [[nodiscard]] std::span<const Pair> at(std::size_t i) const {
    return {pairs.data() + start[i], start[i + 1] - start[i]};
  }
  void push(std::span<const Pair> cmd);
  /// Appends command i as it goes on the wire.
  void render(std::size_t i, std::string& out) const;
};

struct Workload {
  std::string name;
  Commands warm;  ///< untimed warm-up, answered before timing starts
  Commands main;  ///< the timed stream (wraps around if exhausted)
};

/// `uniform` -> serve_uniform_batch (BATCH of uniform pairs, warm-up is the
/// stream's own prefix); `hot` -> serve_hot_single (Q lines inside a seeded
/// hot set, warm-up = one BFS source per hot vertex).
[[nodiscard]] Workload make_workload(const std::string& stream,
                                     std::uint32_t n, std::uint64_t seed,
                                     const Size& size);

/// Uniform single pairs for the in-process queries of `construct`.
[[nodiscard]] std::vector<Pair> make_pairs(std::uint32_t n, std::uint32_t count,
                                           std::uint64_t seed);

// --- reference answers -------------------------------------------------------

/// d_H for every pair of warm then main, from the reference BFS.
struct Reference {
  std::uint64_t stream_digest = 0;
  std::vector<std::uint32_t> warm;
  std::vector<std::uint32_t> main;
};

[[nodiscard]] std::uint64_t digest(const Workload& w);
void write_reference(const Reference& ref, const std::string& path);
[[nodiscard]] Reference read_reference(const std::string& path);

/// "u v d\n" lines for the pairs of one command (d = "inf" if unreachable).
void render_answers(std::span<const Pair> pairs,
                    std::span<const std::uint32_t> dist, std::string& out);

}  // namespace bench
