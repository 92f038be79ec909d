// Approximate distance-oracle serving layer backed by a near-additive
// spanner.
//
// The application the spanner literature ([EP01], [TZ01], [RTZ05] in the
// paper's introduction) motivates: preprocess the graph once into a sparse
// structure, then serve distance queries from the structure alone.  With a
// (M, A)-spanner the answers satisfy
//
//     d_G(u,v) ≤ query(u,v) ≤ M·d_G(u,v) + A
//
// and each uncached query source costs at most one BFS over H (O(|H|) =
// O(β·n^{1+1/κ})) instead of O(|E|).
//
// Serving model:
//   * The oracle holds the spanner as a graph::Csr — two flat arrays — in
//     input vertex order: csr(), what save*() writes and spanner()
//     mirrors.  Csr copies share storage, so cloning an oracle across
//     serving shards costs O(1) memory, and a v2 binary snapshot keeps
//     csr() a view into its file mapping.
//   * The BFS hot loop runs on a second copy, search_csr(): the spanner
//     relabelled in its BFS order (graph::Csr::relabel_bfs_order), so the
//     cells a search level reads sit on few cache lines even when the
//     input's IDs are random with respect to the graph's structure.  It
//     is built once, at construction or load (one O(n + m) copy: 8(n+1) +
//     8m bytes, plus 4n for the permutation), and held behind one
//     shared_ptr, so oracle copies and every shard of a ShardedCluster
//     share it.  Sources and targets are translated at the boundary, and
//     cached rows are kept in the new order.  Cache keys, the smaller-ID
//     rule, LRU ties and the refusal ring stay in input IDs, so answers
//     and counters equal those of a search in input order (on a spanner
//     that resolves to top-down, edges_inspected is the sum of the reached
//     degrees, whatever the labelling; bottom-up levels may count
//     differently).
//   * `batch_query` answers a whole request vector at once, and `query` is
//     a one-request batch.  A serial planner picks one source per request
//     (a cached endpoint when there is one, else the smaller ID), answers
//     the cache hits, and deduplicates the missed sources in
//     first-appearance order, each with the targets its requests ask for.
//   * Admission (serial, in that order): a missed source gets a full,
//     cached distance row only when the cache has a free slot (counting
//     rows admitted earlier in the batch), or when it is in the FIFO ring
//     of the last min(capacity, n) refused sources and an entry older than
//     the batch can make room.  Every other miss is refused a row, enters
//     the ring, and gets an exact targeted search: a BFS stopped at the end
//     of the level that reaches its last target.  A one-off source thus
//     costs a search, not a row, and a source that comes back while the
//     ring still holds it is cached.
//   * The targeted search is one-sided on purpose.  For a target drawn
//     uniformly it reaches about half the source's component on average,
//     whatever the graph (the target's rank in the source's visit order is
//     uniform), so a miss costs the same share of a pass on every spanner.
//     A bidirectional search inspects fewer edges on average, but how many
//     follows each spanner's distance structure: 0.17-0.30 of a pass over
//     ten random geometric graphs at n = 16384, which moved serving
//     throughput by a quarter from graph to graph.
//   * The missed sources are sharded across a util::ThreadPool; each pool
//     slot runs graph::BfsScratch on a scratch the oracle keeps across
//     batches.  The BFS kernel is BfsKernel::kAuto, which picks top-down or
//     hybrid per graph from its average degree.  Every decision is made by
//     the serial planner before the parallel phase, so answers, cache
//     contents and counters are pure functions of the request history at
//     every thread count, and answers are byte-identical at every cache
//     budget too.
//   * The per-source distance cache is *bounded*: OracleOptions fixes a
//     memory budget, each cached source costs 4·n bytes, and eviction is
//     deterministic LRU — least-recently-used batch first, ties broken by
//     evicting the smallest source ID — through an ordered
//     (last_used, source) index.
//   * `save`/`load` snapshot the oracle (spanner + Params + guarantee) so
//     serving processes can load a prebuilt structure instead of re-running
//     the CONGEST construction (tools/nas_oracle writes them).  Two formats
//     exist — v1 text and v2 binary (apps/snapshot.hpp); answers are
//     byte-identical regardless of which one an oracle was loaded from.
//
// Thread-safety: const methods mutate the cache (and the lazily
// materialized adjacency-list spanner) under the hood — same contract as
// the previous implementation; callers must not invoke methods on one
// oracle concurrently.  The concurrency happens *inside* batch_query, on
// disjoint scratch buffers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/snapshot.hpp"
#include "core/elkin_matar.hpp"
#include "core/params.hpp"
#include "graph/bfs_kernel.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace nas::apps {

/// One distance request.
struct Query {
  graph::Vertex u = 0;
  graph::Vertex v = 0;
};

struct OracleOptions {
  /// Source-cache memory budget in bytes; each cached source costs 4·n
  /// bytes, so the cache holds floor(budget / 4n) sources.  0 disables
  /// caching entirely (every miss gets a targeted search).  Answers never
  /// depend on the budget — only the counters do.
  std::uint64_t cache_budget_bytes = 64ull << 20;
};

/// Per-batch serving diagnostics.
struct BatchStats {
  std::uint64_t queries = 0;           ///< requests in the batch
  std::uint64_t distinct_sources = 0;  ///< deduplicated BFS sources
  std::uint64_t cache_hits = 0;        ///< sources served from the cache
  /// Uncached sources searched, by a full row or a targeted search.
  std::uint64_t bfs_passes = 0;
  std::uint64_t evictions = 0;         ///< cache entries evicted
  /// Edges the searches inspected (graph::BfsKernelStats, summed).
  std::uint64_t edges_inspected = 0;
  std::uint64_t row_bytes = 0;  ///< rows built for the cache, 4·n bytes each
};

class SpannerDistanceOracle {
 public:
  /// Builds the spanner for `g` with schedule `params` and prepares the
  /// query structure.  The input graph is NOT retained.
  SpannerDistanceOracle(const graph::Graph& g, const core::Params& params,
                        OracleOptions options = {});

  /// Wraps an already-built construction (keeps its Params and guarantee).
  explicit SpannerDistanceOracle(core::SpannerResult result,
                                 OracleOptions options = {});

  /// Wraps an arbitrary spanner with an externally proven guarantee
  /// d_H ≤ multiplicative·d_G + additive (the baseline constructions come
  /// through here; no Params is attached unless `params` is provided).
  SpannerDistanceOracle(graph::Graph spanner, double multiplicative,
                        double additive, OracleOptions options = {},
                        std::optional<core::Params> params = std::nullopt);

  /// Same, from a CSR view directly.  The Csr's storage is shared, not
  /// copied — a serving cluster hands every shard the same arrays, and the
  /// v2 snapshot loader hands over its file mapping.
  SpannerDistanceOracle(graph::Csr spanner, double multiplicative,
                        double additive, OracleOptions options = {},
                        std::optional<core::Params> params = std::nullopt);

  /// Approximate distance; graph::kInfDist if disconnected.  A batch of
  /// one request (see batch_query).
  [[nodiscard]] std::uint32_t query(graph::Vertex u, graph::Vertex v) const;

  /// Answers `queries` in request order.  The distinct uncached sources are
  /// sharded across `threads` workers (0 = hardware concurrency); the
  /// returned vector is byte-identical for every thread count and cache
  /// budget, and the cache state and `stats` for every thread count.
  /// `stats`, when non-null, receives the batch diagnostics.
  [[nodiscard]] std::vector<std::uint32_t> batch_query(
      std::span<const Query> queries, unsigned threads = 1,
      BatchStats* stats = nullptr) const;

  // --- snapshot -------------------------------------------------------------

  /// Writes the v1 text snapshot: a "NAS-ORACLE v1" header, the Params
  /// needed to rebuild the schedule (or "none"), the guarantee pair, then
  /// the spanner as a graph::io edge list.  Doubles are rendered with %.17g
  /// so the loaded guarantee is bit-identical.
  void save(std::ostream& out) const;
  /// Writes the snapshot to `path` in the requested format (v1 text by
  /// default; SnapshotFormat::kV2 writes the mmap-able binary image).
  void save_file(const std::string& path,
                 SnapshotFormat format = SnapshotFormat::kV1) const;

  /// Reads a v1 text snapshot.  Malformed input raises std::runtime_error
  /// naming the offending line, mirroring the graph::read_edge_list
  /// contract: bad magic (line 1), malformed params/guarantee lines (lines
  /// 2-3), truncated files, and edge-count mismatches in the edge-list
  /// body.  A snapshot with Params whose recomputed guarantee disagrees
  /// with the recorded pair beyond a small relative tolerance is rejected
  /// (schedule/schema drift guard; the tolerance absorbs cross-libm ulp
  /// differences, and the recorded pair is what serving uses either way).
  [[nodiscard]] static SpannerDistanceOracle load(std::istream& in,
                                                  OracleOptions options = {});
  /// Reads a snapshot from `path`, auto-detecting the format from its
  /// leading bytes: v2 binary images are mapped zero-copy (errors carry
  /// byte offsets), anything else goes through the v1 text reader.
  [[nodiscard]] static SpannerDistanceOracle load_file(
      const std::string& path, OracleOptions options = {});

  // --- introspection --------------------------------------------------------

  /// The guarantee: query(u,v) <= multiplicative()*d_G(u,v) + additive().
  [[nodiscard]] double multiplicative() const { return mult_; }
  [[nodiscard]] double additive() const { return add_; }

  /// The spanner in input vertex order: what save*() writes, and, for an
  /// oracle loaded from a v2 snapshot, a view into the file mapping.
  [[nodiscard]] const graph::Csr& csr() const { return csr_; }
  /// The structure the BFS hot loop runs on: csr() relabelled in its BFS
  /// order (graph::Csr::relabel_bfs_order), built once at construction or
  /// load and shared by every copy of this oracle.
  [[nodiscard]] const graph::Csr& search_csr() const { return search_->csr; }
  /// Adjacency-list view of the spanner, materialized lazily on first use
  /// (identical neighbor order).  Cold-path/introspection helper — serving
  /// never touches it.
  [[nodiscard]] const graph::Graph& spanner() const;
  [[nodiscard]] graph::Vertex num_vertices() const {
    return csr_.num_vertices();
  }
  [[nodiscard]] std::size_t spanner_edges() const { return csr_.num_edges(); }
  /// One-line banner, e.g. "Graph(n=100, m=250)".
  [[nodiscard]] std::string summary() const { return csr_.summary(); }
  /// The schedule the spanner was built with, when known.
  [[nodiscard]] const std::optional<core::Params>& params() const {
    return params_;
  }

  /// Total uncached sources searched so far, full or targeted (cumulative,
  /// survives eviction).
  [[nodiscard]] std::uint64_t bfs_passes() const { return bfs_passes_; }
  /// Total cache evictions so far.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  /// Sources currently cached / the bound the budget resolves to.
  [[nodiscard]] std::size_t cached_sources() const { return cache_.size(); }
  [[nodiscard]] std::uint64_t cache_capacity() const { return capacity_; }

 private:
  struct CacheEntry {
    std::vector<std::uint32_t> dist;
    std::uint64_t last_used = 0;  ///< logical clock of the last touching batch
  };

  /// Marks `entry` used by the current batch; true the first time per batch.
  bool touch(graph::Vertex s, CacheEntry& entry) const;
  /// Evicts the least recently used entry (ties: smallest source ID) and
  /// hands back its row storage for reuse.
  std::vector<std::uint32_t> evict_oldest() const;
  /// Whether `s` is in the ring of recently refused sources.
  bool recently_refused(graph::Vertex s) const;
  /// Pushes `s` into the ring, dropping the oldest refusal when it is full.
  void remember_refusal(graph::Vertex s) const;
  void check_vertex(graph::Vertex v) const;

  graph::Csr csr_;  ///< the spanner in input order (what save*() writes)
  std::optional<core::Params> params_;
  double mult_ = 1.0;
  double add_ = 0.0;
  /// csr_ in its BFS order plus the input -> search ID map; immutable and
  /// shared by every copy of the oracle (every shard of a cluster).
  std::shared_ptr<const graph::RelabelledCsr> search_;
  std::uint64_t capacity_ = 0;  ///< max cached sources (from the byte budget)

  /// Cached rows by input source ID, each row indexed by search ID (target
  /// t reads dist[to_new[t]]), and the LRU order over them: (last_used,
  /// source) ascending, so the first element is the next victim.  Both are
  /// ordered containers, so eviction is structurally deterministic.
  mutable std::map<graph::Vertex, CacheEntry> cache_;
  mutable std::set<std::pair<std::uint64_t, graph::Vertex>> lru_;
  /// The last min(capacity, n) refused sources, as a FIFO ring: refused_
  /// fills up first, then refused_next_ names the oldest slot.  The bitmap
  /// (n bits, sized on the first refusal) answers membership.
  mutable std::vector<graph::Vertex> refused_;
  mutable std::size_t refused_next_ = 0;
  mutable std::vector<bool> refused_member_;
  mutable std::uint64_t clock_ = 0;
  mutable std::uint64_t bfs_passes_ = 0;
  mutable std::uint64_t evictions_ = 0;
  /// One BFS scratch per pool slot, kept across batches.
  mutable std::vector<graph::BfsScratch> scratches_;
  /// spanner() materialization (adjacency-list mirror of csr_).
  mutable std::shared_ptr<const graph::Graph> materialized_;
};

/// Order-sensitive 64-bit digest of an answer vector (SplitMix-style mixing;
/// includes the length).  The runner emits this through the unified sinks so
/// cross-thread/cross-budget byte-identity of a whole serving run collapses
/// to comparing one column.
[[nodiscard]] std::uint64_t digest_answers(std::span<const std::uint32_t> answers);

}  // namespace nas::apps
