#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common.hpp"

namespace bench {

Size size_named(const std::string& name) {
  if (name == "full") {
    return {.name = "full",
            .n = 16384,
            .batch = 16,
            .uniform_warm = 96,
            .uniform_commands = 16384,
            .hot = 256,
            .hot_commands = 1u << 20,
            .verify_sources = 256,
            .construct_queries = 2048,
            .trace_batch_commands = 512,
            .trace_single_commands = 4096,
            .min_timed_commands = 1000};
  }
  if (name == "smoke") {
    return {.name = "smoke",
            .n = 1024,
            .batch = 16,
            .uniform_warm = 8,
            .uniform_commands = 256,
            .hot = 32,
            .hot_commands = 512,
            .verify_sources = 64,
            .construct_queries = 256,
            .trace_batch_commands = 32,
            .trace_single_commands = 256,
            .min_timed_commands = 100};
  }
  throw std::invalid_argument("unknown size " + name + " (full|smoke)");
}

// --- graph -------------------------------------------------------------------

namespace {

std::uint32_t find_root(std::vector<std::uint32_t>& parent, std::uint32_t v) {
  while (parent[v] != v) v = parent[v] = parent[parent[v]];
  return v;
}

}  // namespace

EdgeList make_geometric(std::uint32_t n, std::uint64_t seed) {
  Rng rng(stream_seed(seed, 1));
  std::vector<double> x(n), y(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    x[v] = rng.uniform();
    y[v] = rng.uniform();
  }
  const double radius =
      1.6 * std::sqrt(std::log(static_cast<double>(n)) / (M_PI * n));
  const auto cells = static_cast<std::uint32_t>(1.0 / radius) + 1;
  const auto cell_of = [&](double c) {
    return std::min(static_cast<std::uint32_t>(c / radius), cells - 1);
  };
  std::vector<std::vector<std::uint32_t>> bucket(std::size_t{cells} * cells);
  for (std::uint32_t v = 0; v < n; ++v) {
    bucket[std::size_t{cell_of(x[v])} * cells + cell_of(y[v])].push_back(v);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  const double r2 = radius * radius;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t bx = cell_of(x[v]), by = cell_of(y[v]);
    const std::uint32_t x_end = std::min(bx + 1, cells - 1);
    const std::uint32_t y_end = std::min(by + 1, cells - 1);
    for (std::uint32_t nx = bx == 0 ? 0 : bx - 1; nx <= x_end; ++nx) {
      for (std::uint32_t ny = by == 0 ? 0 : by - 1; ny <= y_end; ++ny) {
        for (std::uint32_t u : bucket[std::size_t{nx} * cells + ny]) {
          const double dx = x[u] - x[v], dy = y[u] - y[v];
          if (u > v && dx * dx + dy * dy <= r2) edges.emplace_back(v, u);
        }
      }
    }
  }

  // Largest component, relabelled in increasing order of the old ids.
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  for (const auto& [u, v] : edges) {
    parent[find_root(parent, u)] = find_root(parent, v);
  }
  std::vector<std::uint32_t> count(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) ++count[find_root(parent, v)];
  const auto big = static_cast<std::uint32_t>(
      std::max_element(count.begin(), count.end()) - count.begin());
  std::vector<std::uint32_t> label(n, UINT32_MAX);
  EdgeList g;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (find_root(parent, v) == big) label[v] = g.n++;
  }
  for (const auto& [u, v] : edges) {
    if (label[u] != UINT32_MAX) g.edges.emplace_back(label[u], label[v]);
  }
  std::sort(g.edges.begin(), g.edges.end());
  return g;
}

void write_edge_list(const EdgeList& g, const std::string& path) {
  std::ofstream out(path);
  out << g.n << ' ' << g.edges.size() << '\n';
  std::string line;
  for (const auto& [u, v] : g.edges) {
    line.clear();
    line += std::to_string(u);
    line += ' ';
    line += std::to_string(v);
    line += '\n';
    out << line;
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

// --- request streams ---------------------------------------------------------

void Commands::push(std::span<const Pair> cmd) {
  pairs.insert(pairs.end(), cmd.begin(), cmd.end());
  start.push_back(static_cast<std::uint32_t>(pairs.size()));
}

void Commands::render(std::size_t i, std::string& out) const {
  const auto cmd = at(i);
  if (single) {
    out += "Q ";
  } else {
    out += "BATCH ";
    out += std::to_string(cmd.size());
    out += '\n';
  }
  for (const Pair& p : cmd) {
    out += std::to_string(p.u);
    out += ' ';
    out += std::to_string(p.v);
    out += '\n';
  }
}

Workload make_workload(const std::string& stream, std::uint32_t n,
                       std::uint64_t seed, const Size& size) {
  Workload w;
  if (stream == "uniform") {
    w.name = "serve_uniform_batch";
    Rng rng(stream_seed(seed, 2));
    std::vector<Pair> cmd(size.batch);
    const std::uint32_t total = size.uniform_warm + size.uniform_commands;
    for (std::uint32_t i = 0; i < total; ++i) {
      for (Pair& p : cmd) p = {rng.below(n), rng.below(n)};
      (i < size.uniform_warm ? w.warm : w.main).push(cmd);
    }
    return w;
  }
  if (stream == "hot") {
    w.name = "serve_hot_single";
    w.main.single = true;
    Rng rng(stream_seed(seed, 3));
    // The hot set avoids n-1: the warm-up pairs (h, n-1) then make every
    // hot vertex h the BFS source of its pair, so each hot row gets cached.
    std::set<std::uint32_t> hot_set;
    while (hot_set.size() < size.hot) hot_set.insert(rng.below(n - 1));
    const std::vector<std::uint32_t> hot(hot_set.begin(), hot_set.end());
    std::vector<Pair> cmd;
    for (std::uint32_t h : hot) {
      cmd.push_back({h, n - 1});
      if (cmd.size() == size.batch) {
        w.warm.push(cmd);
        cmd.clear();
      }
    }
    if (!cmd.empty()) w.warm.push(cmd);
    for (std::uint32_t i = 0; i < size.hot_commands; ++i) {
      const std::uint32_t a = rng.below(size.hot);
      std::uint32_t b = rng.below(size.hot - 1);
      if (b >= a) ++b;
      const Pair p{hot[a], hot[b]};
      w.main.push({&p, 1});
    }
    return w;
  }
  throw std::invalid_argument("unknown stream " + stream);
}

std::vector<Pair> make_pairs(std::uint32_t n, std::uint32_t count,
                             std::uint64_t seed) {
  Rng rng(stream_seed(seed, 4));
  std::vector<Pair> pairs(count);
  for (Pair& p : pairs) p = {rng.below(n), rng.below(n)};
  return pairs;
}

// --- reference answers -------------------------------------------------------

std::uint64_t digest(const Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  for (const Commands* c : {&w.warm, &w.main}) {
    mix(c->single);
    for (std::uint32_t s : c->start) mix(s);
    for (const Pair& p : c->pairs) mix((std::uint64_t{p.u} << 32) | p.v);
  }
  return h;
}

namespace {
constexpr char kRefMagic[8] = {'N', 'B', 'R', 'E', 'F', '1', 0, 0};
}

void write_reference(const Reference& ref, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  const std::uint64_t header[3] = {ref.stream_digest, ref.warm.size(),
                                   ref.main.size()};
  out.write(kRefMagic, sizeof kRefMagic);
  out.write(reinterpret_cast<const char*>(header), sizeof header);
  out.write(reinterpret_cast<const char*>(ref.warm.data()),
            static_cast<std::streamsize>(ref.warm.size() * 4));
  out.write(reinterpret_cast<const char*>(ref.main.data()),
            static_cast<std::streamsize>(ref.main.size() * 4));
  if (!out) throw std::runtime_error("cannot write " + path);
}

Reference read_reference(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8];
  std::uint64_t header[3];
  in.read(magic, sizeof magic);
  in.read(reinterpret_cast<char*>(header), sizeof header);
  if (!in || std::memcmp(magic, kRefMagic, sizeof magic) != 0) {
    throw std::runtime_error("bad reference file " + path);
  }
  Reference ref;
  ref.stream_digest = header[0];
  ref.warm.resize(header[1]);
  ref.main.resize(header[2]);
  in.read(reinterpret_cast<char*>(ref.warm.data()),
          static_cast<std::streamsize>(ref.warm.size() * 4));
  in.read(reinterpret_cast<char*>(ref.main.data()),
          static_cast<std::streamsize>(ref.main.size() * 4));
  if (!in) throw std::runtime_error("truncated reference file " + path);
  return ref;
}

void render_answers(std::span<const Pair> pairs,
                    std::span<const std::uint32_t> dist, std::string& out) {
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    out += std::to_string(pairs[i].u);
    out += ' ';
    out += std::to_string(pairs[i].v);
    out += ' ';
    out += dist[i] == UINT32_MAX ? std::string("inf") : std::to_string(dist[i]);
    out += '\n';
  }
}

}  // namespace bench
