#include "apps/distance_oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "graph/bfs_kernel.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nas::apps {

using graph::Vertex;

namespace {

constexpr char kMagic[] = "NAS-ORACLE v1";

/// %.17g round-trips every finite IEEE double exactly.
std::string render_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t resolve_capacity(std::uint64_t budget_bytes, Vertex n) {
  if (n == 0) return 0;
  return budget_bytes / (static_cast<std::uint64_t>(n) * sizeof(std::uint32_t));
}

}  // namespace

SpannerDistanceOracle::SpannerDistanceOracle(const graph::Graph& g,
                                             const core::Params& params,
                                             OracleOptions options)
    : SpannerDistanceOracle(core::build_spanner(g, params, {.validate = false}),
                            options) {}

SpannerDistanceOracle::SpannerDistanceOracle(core::SpannerResult result,
                                             OracleOptions options)
    : SpannerDistanceOracle(graph::Csr::from_graph(result.spanner),
                            result.params.stretch_multiplicative(),
                            result.params.stretch_additive(), options,
                            result.params) {}

SpannerDistanceOracle::SpannerDistanceOracle(graph::Graph spanner,
                                             double multiplicative,
                                             double additive,
                                             OracleOptions options,
                                             std::optional<core::Params> params)
    : SpannerDistanceOracle(graph::Csr::from_graph(spanner), multiplicative,
                            additive, options, std::move(params)) {}

SpannerDistanceOracle::SpannerDistanceOracle(graph::Csr spanner,
                                             double multiplicative,
                                             double additive,
                                             OracleOptions options,
                                             std::optional<core::Params> params)
    : csr_(std::move(spanner)),
      params_(std::move(params)),
      mult_(multiplicative),
      add_(additive),
      search_(std::make_shared<const graph::RelabelledCsr>(
          csr_.relabel_bfs_order())),
      capacity_(resolve_capacity(options.cache_budget_bytes,
                                 csr_.num_vertices())) {}

const graph::Graph& SpannerDistanceOracle::spanner() const {
  if (!materialized_) {
    materialized_ = std::make_shared<const graph::Graph>(csr_.to_graph());
  }
  return *materialized_;
}

void SpannerDistanceOracle::check_vertex(Vertex v) const {
  if (v >= csr_.num_vertices()) {
    throw std::invalid_argument("SpannerDistanceOracle: vertex out of range");
  }
}

bool SpannerDistanceOracle::touch(Vertex s, CacheEntry& entry) const {
  if (entry.last_used == clock_) return false;
  auto node = lru_.extract({entry.last_used, s});  // re-keyed, not reallocated
  node.value().first = clock_;
  lru_.insert(std::move(node));
  entry.last_used = clock_;
  return true;
}

std::vector<std::uint32_t> SpannerDistanceOracle::evict_oldest() const {
  const Vertex victim = lru_.begin()->second;
  lru_.erase(lru_.begin());
  const auto it = cache_.find(victim);
  std::vector<std::uint32_t> row = std::move(it->second.dist);
  cache_.erase(it);
  ++evictions_;
  return row;
}

bool SpannerDistanceOracle::recently_refused(Vertex s) const {
  return !refused_member_.empty() && refused_member_[s];
}

void SpannerDistanceOracle::remember_refusal(Vertex s) const {
  const std::uint64_t ring =
      std::min<std::uint64_t>(capacity_, csr_.num_vertices());
  if (ring == 0 || recently_refused(s)) return;
  if (refused_member_.empty()) {
    refused_member_.assign(csr_.num_vertices(), false);
  }
  if (refused_.size() < ring) {
    refused_.push_back(s);
  } else {
    refused_member_[refused_[refused_next_]] = false;
    refused_[refused_next_] = s;
    refused_next_ = (refused_next_ + 1) % ring;
  }
  refused_member_[s] = true;
}

std::uint32_t SpannerDistanceOracle::query(Vertex u, Vertex v) const {
  const Query request{u, v};
  return batch_query(std::span<const Query>(&request, 1)).front();
}

std::vector<std::uint32_t> SpannerDistanceOracle::batch_query(
    std::span<const Query> queries, unsigned threads, BatchStats* stats) const {
  for (const auto& q : queries) {
    check_vertex(q.u);
    check_vertex(q.v);
  }
  const Vertex n = csr_.num_vertices();
  const graph::Csr& search_graph = search_->csr;
  const std::vector<Vertex>& to_new = search_->to_new;
  const auto evictions_before = evictions_;
  ++clock_;  // the whole batch is one logical-clock tick

  // Plan (serial): pick one source per request — a cached endpoint when
  // available, else the smaller ID.  Hits are answered and marked used
  // now; the missed sources are deduplicated in first-appearance order.
  // Sources, cache keys and the LRU order are input IDs; rows, targets and
  // searches are in the search graph's BFS order, reached through to_new.
  constexpr std::size_t kNoSearch = static_cast<std::size_t>(-1);
  std::vector<std::uint32_t> answers(queries.size(), 0);
  std::vector<std::size_t> search_of(queries.size(), kNoSearch);
  std::vector<Vertex> missing;
  std::unordered_map<Vertex, std::size_t> missing_index;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto [u, v] = queries[i];
    if (u == v) continue;
    auto hit = cache_.find(u);
    Vertex t = v;
    if (hit == cache_.end()) {
      hit = cache_.find(v);
      t = u;
    }
    if (hit != cache_.end()) {
      answers[i] = hit->second.dist[to_new[t]];
      if (touch(hit->first, hit->second)) ++hits;
      continue;
    }
    const auto [at, fresh] =
        missing_index.emplace(std::min(u, v), missing.size());
    if (fresh) missing.push_back(at->first);
    search_of[i] = at->second;
  }

  // Each missed source's targets, grouped by source in request order:
  // search j asks for targets[first_target[j], first_target[j + 1]).
  std::vector<std::size_t> first_target(missing.size() + 1, 0);
  for (const std::size_t j : search_of) {
    if (j != kNoSearch) ++first_target[j + 1];
  }
  std::partial_sum(first_target.begin(), first_target.end(),
                   first_target.begin());
  std::vector<Vertex> targets(first_target.back());
  std::vector<std::size_t> slot_of(queries.size());
  {
    std::vector<std::size_t> next(first_target.begin(), first_target.end() - 1);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::size_t j = search_of[i];
      if (j == kNoSearch) continue;
      slot_of[i] = next[j]++;
      targets[slot_of[i]] =
          to_new[queries[i].u == missing[j] ? queries[i].v : queries[i].u];
    }
  }

  // Admission (serial): a missed source gets a cached row into a free slot
  // (counting rows admitted earlier in this batch), or when it was refused
  // recently and an entry older than this batch can make room — that
  // entry is evicted now and its row storage reused.  Every other miss is
  // refused a row and gets a BFS stopped at the level of its last target.
  std::vector<std::vector<std::uint32_t>> rows(missing.size());
  std::vector<std::uint8_t> admitted(missing.size(), 0);
  std::uint64_t free_slots = capacity_ - cache_.size();
  std::uint64_t older = cache_.size() - hits;
  for (std::size_t j = 0; j < missing.size(); ++j) {
    if (free_slots > 0) {
      --free_slots;
      admitted[j] = 1;
    } else if (older > 0 && recently_refused(missing[j])) {
      --older;
      admitted[j] = 1;
      rows[j] = evict_oldest();
    } else {
      remember_refusal(missing[j]);
    }
  }

  // Search the missed sources, sharded across the pool.  Each slot owns
  // one kept scratch and writes only its own sources' rows, target
  // distances and edge counts, so every result is independent of the slot
  // count.  The workers stream the shared search graph read-only.
  std::vector<std::uint32_t> target_dist(targets.size());
  std::vector<std::uint64_t> edges(missing.size(), 0);
  const auto search = [&](std::size_t j, graph::BfsScratch& scratch) {
    const std::span<const Vertex> want(targets.data() + first_target[j],
                                       first_target[j + 1] - first_target[j]);
    const auto got = target_dist.begin() +
                     static_cast<std::ptrdiff_t>(first_target[j]);
    graph::BfsKernelStats kernel_stats;
    const Vertex source = to_new[missing[j]];
    if (admitted[j] != 0) {
      scratch.run(search_graph, source, graph::BfsKernel::kAuto,
                  &kernel_stats);
      rows[j].resize(n);
      scratch.copy_distances(rows[j]);
    } else {
      scratch.run(search_graph, source, want, graph::BfsKernel::kAuto,
                  &kernel_stats);
    }
    std::transform(want.begin(), want.end(), got,
                   [&](Vertex t) { return scratch.distance(t); });
    edges[j] = kernel_stats.edges_inspected;
  };
  const unsigned slots = util::ThreadPool::resolve(threads, missing.size());
  if (scratches_.size() < slots) scratches_.resize(slots);
  util::ThreadPool::run_sharded(
      slots, slots, [&](std::size_t slot_begin, std::size_t slot_end) {
        for (std::size_t slot = slot_begin; slot < slot_end; ++slot) {
          const auto [begin, end] = util::ThreadPool::shard(
              missing.size(), slots, static_cast<unsigned>(slot));
          for (std::size_t j = begin; j < end; ++j) {
            search(j, scratches_[slot]);
          }
        }
      });
  bfs_passes_ += missing.size();

  // Answer the misses in request order, then cache the admitted rows in
  // first-appearance order (serial, deterministic).
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (search_of[i] != kNoSearch) answers[i] = target_dist[slot_of[i]];
  }
  std::uint64_t rows_built = 0;
  for (std::size_t j = 0; j < missing.size(); ++j) {
    if (admitted[j] == 0) continue;
    cache_.emplace(missing[j], CacheEntry{std::move(rows[j]), clock_});
    lru_.emplace(clock_, missing[j]);
    ++rows_built;
  }

  if (stats != nullptr) {
    stats->queries = queries.size();
    stats->distinct_sources = hits + missing.size();
    stats->cache_hits = hits;
    stats->bfs_passes = missing.size();
    stats->evictions = evictions_ - evictions_before;
    stats->edges_inspected = 0;
    for (const auto e : edges) stats->edges_inspected += e;
    stats->row_bytes = rows_built * n * sizeof(std::uint32_t);
  }
  return answers;
}

// --- snapshot ----------------------------------------------------------------

void SpannerDistanceOracle::save(std::ostream& out) const {
  out << kMagic << '\n';
  if (params_.has_value()) {
    // Store the constructor arguments: Params::paper takes the user-facing
    // eps', Params::practical the internal eps.
    const auto& p = *params_;
    out << "params " << (p.is_paper_mode() ? "paper" : "practical") << ' '
        << render_double(p.is_paper_mode() ? p.eps_user() : p.eps_internal())
        << ' ' << p.kappa() << ' ' << render_double(p.rho()) << ' '
        << p.n_estimate() << '\n';
  } else {
    out << "params none\n";
  }
  out << "guarantee " << render_double(mult_) << ' ' << render_double(add_)
      << '\n';
  graph::write_edge_list(csr_, out);
}

void SpannerDistanceOracle::save_file(const std::string& path,
                                      SnapshotFormat format) const {
  if (format == SnapshotFormat::kV2) {
    save_snapshot_v2({csr_, mult_, add_, params_}, path);
    return;
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("oracle snapshot: cannot open " + path +
                             " for writing");
  }
  save(out);
  if (!out) throw std::runtime_error("oracle snapshot: write failed: " + path);
}

SpannerDistanceOracle SpannerDistanceOracle::load(std::istream& in,
                                                  OracleOptions options) {
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error("oracle snapshot: " + what + " at line " +
                             std::to_string(line_no));
  };
  std::string line;
  const auto next_line = [&](const char* expected) {
    ++line_no;
    if (!std::getline(in, line)) {
      fail(std::string("truncated snapshot (expected ") + expected + ")");
    }
  };

  next_line("magic header");
  if (line != kMagic) {
    fail("bad magic \"" + line + "\" (expected \"" + kMagic + "\")");
  }

  next_line("params line");
  std::istringstream params_line(line);
  std::string tag, mode;
  if (!(params_line >> tag >> mode) || tag != "params") {
    fail("malformed params line (expected 'params none|practical|paper ...')");
  }
  bool have_params = false;
  double eps = 0.0, rho = 0.0;
  int kappa = 0;
  std::uint64_t n_estimate = 0;
  std::string trailing;
  if (mode == "none") {
    if (params_line >> trailing) fail("trailing token in params line");
  } else if (mode == "practical" || mode == "paper") {
    if (!(params_line >> eps >> kappa >> rho >> n_estimate)) {
      fail("malformed params line (expected 'params " + mode +
           " <eps> <kappa> <rho> <n_estimate>')");
    }
    if (params_line >> trailing) fail("trailing token in params line");
    have_params = true;
  } else {
    fail("unknown params mode \"" + mode + "\"");
  }

  next_line("guarantee line");
  std::istringstream guarantee_line(line);
  double mult = 0.0, add = 0.0;
  if (!(guarantee_line >> tag >> mult >> add) || tag != "guarantee") {
    fail("malformed guarantee line (expected 'guarantee <mult> <add>')");
  }
  if (guarantee_line >> trailing) fail("trailing token in guarantee line");

  // The edge-list body reports errors with absolute line numbers by carrying
  // the header offset into graph::read_edge_list.
  graph::Graph spanner;
  try {
    spanner = graph::read_edge_list(in, line_no);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("oracle snapshot: ") + e.what());
  }

  std::optional<core::Params> params;
  if (have_params) {
    params = rebuild_snapshot_params(mode, eps, kappa, rho, n_estimate,
                                     spanner.num_vertices(), mult, add,
                                     "line 2");
  }
  return SpannerDistanceOracle(std::move(spanner), mult, add, options,
                               std::move(params));
}

SpannerDistanceOracle SpannerDistanceOracle::load_file(const std::string& path,
                                                       OracleOptions options) {
  if (detect_snapshot_format(path) == SnapshotFormat::kV2) {
    auto contents = load_snapshot_v2(path);
    return SpannerDistanceOracle(std::move(contents.csr),
                                 contents.multiplicative, contents.additive,
                                 options, std::move(contents.params));
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("oracle snapshot: cannot open " + path);
  return load(in, options);
}

std::uint64_t digest_answers(std::span<const std::uint32_t> answers) {
  std::uint64_t h = util::mix64(answers.size());
  for (const auto a : answers) h = util::mix64(h ^ a);
  return h;
}

}  // namespace nas::apps
