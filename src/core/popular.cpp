#include "core/popular.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "congest/engine.hpp"

namespace nas::core {

using graph::Graph;
using graph::kInvalidVertex;
using graph::Vertex;

namespace {

void validate(const Graph& g, const std::vector<Vertex>& sources,
              std::uint64_t delta, std::uint64_t cap) {
  if (delta == 0) throw std::invalid_argument("algorithm1: delta == 0");
  if (cap == 0) throw std::invalid_argument("algorithm1: cap == 0");
  std::vector<std::uint8_t> seen(g.num_vertices(), 0);
  for (Vertex s : sources) {
    if (s >= g.num_vertices()) {
      throw std::invalid_argument("algorithm1: source out of range");
    }
    if (seen[s] != 0) {
      throw std::invalid_argument("algorithm1: duplicate source");
    }
    seen[s] = 1;
  }
}

}  // namespace

const Knowledge* find_knowledge(const std::vector<Knowledge>& list,
                                Vertex origin) {
  for (const Knowledge& k : list) {
    if (k.origin == origin) return &k;
  }
  return nullptr;
}

Algorithm1Result run_algorithm1(const Graph& g,
                                const std::vector<Vertex>& sources,
                                std::uint64_t delta, std::uint64_t cap,
                                congest::Ledger* ledger) {
  validate(g, sources, delta, cap);
  const Vertex n = g.num_vertices();

  Algorithm1Result res;
  res.knowledge.resize(n);
  res.popular.assign(n, 0);

  // Frontier in CSR form: the origins u accepted in the previous layer, in
  // ascending ID, are fresh[off[u] .. off[u + 1]).  Layer 0: every source
  // announces itself.
  std::vector<std::size_t> off(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Vertex> fresh = sources;
  std::sort(fresh.begin(), fresh.end());
  for (Vertex s : fresh) off[s + 1] = 1;
  std::partial_sum(off.begin(), off.end(), off.begin());
  std::vector<std::size_t> next_off(off.size(), 0);
  std::vector<Vertex> next;

  // heard[w] == layer: some neighbor of w sends in this layer.
  std::vector<std::uint64_t> heard(n, 0);
  // mark[o] == w: receiver w already knows origin o (or o == w), or has
  // just met it in this layer's scan.  w re-stamps its list before each
  // scan, since other receivers overwrite the array.  A stamp left from an
  // earlier scan of w is wrong only for an origin w met and left untaken,
  // and w leaves a new origin untaken only when its list has just filled,
  // so it is never a receiver again: wrong stamps are never read.
  std::vector<Vertex> mark(n, kInvalidVertex);
  // The receiver's new origins, each with its first (smallest) sender.
  std::vector<std::pair<Vertex, Vertex>> met;

  for (std::uint64_t layer = 1; layer <= delta && !fresh.empty(); ++layer) {
    for (Vertex u = 0; u < n; ++u) {
      const std::uint64_t k = off[u + 1] - off[u];
      if (k == 0) continue;
      // Broadcasting k origins over a cap-round layer puts k <= cap messages
      // on each incident edge-direction: the CONGEST window invariant.
      res.max_edge_layer_load = std::max(res.max_edge_layer_load, k);
      res.messages += k * g.degree(u);
      for (Vertex w : g.neighbors(u)) heard[w] = layer;
    }

    next.clear();
    for (Vertex w = 0; w < n; ++w) {
      next_off[w] = next.size();
      std::vector<Knowledge>& list = res.knowledge[w];
      // A full list discards everything it hears.
      if (heard[w] != layer || list.size() >= cap) continue;
      mark[w] = w;
      for (const Knowledge& k : list) mark[k.origin] = w;
      met.clear();
      // Ascending senders, so the first sender of an origin is the smallest.
      for (Vertex u : g.neighbors(w)) {
        for (std::size_t i = off[u]; i < off[u + 1]; ++i) {
          const Vertex o = fresh[i];
          if (mark[o] == w) continue;
          mark[o] = w;
          met.emplace_back(o, u);
        }
      }
      // The smallest new origins fill the free slots; the rest are dropped.
      const auto take = static_cast<std::ptrdiff_t>(
          std::min<std::uint64_t>(met.size(), cap - list.size()));
      std::partial_sort(met.begin(), met.begin() + take, met.end());
      for (auto it = met.begin(); it != met.begin() + take; ++it) {
        list.push_back({.origin = it->first,
                        .dist = static_cast<std::uint32_t>(layer),
                        .parent = it->second});
        next.push_back(it->first);
      }
    }
    next_off[n] = next.size();
    fresh.swap(next);
    off.swap(next_off);
  }

  for (Vertex s : sources) {
    res.popular[s] = res.knowledge[s].size() >= cap ? 1 : 0;
  }

  res.rounds_charged = 1 + delta * cap;
  if (ledger != nullptr) {
    ledger->charge_rounds(res.rounds_charged);
    ledger->charge_messages(res.messages);
    ledger->check_window_capacity(res.max_edge_layer_load, cap, "algorithm1");
  }
  return res;
}

Algorithm1Result run_algorithm1_exact(const Graph& g,
                                      const std::vector<Vertex>& sources,
                                      std::uint64_t delta, std::uint64_t cap,
                                      congest::Ledger* ledger) {
  validate(g, sources, delta, cap);
  const Vertex n = g.num_vertices();

  Algorithm1Result res;
  res.knowledge.resize(n);
  res.popular.assign(n, 0);

  std::vector<std::uint8_t> is_source(n, 0);
  for (Vertex s : sources) is_source[s] = 1;

  // Per-vertex state for the round-exact execution, indexed by the
  // executing vertex.
  // known[v]: origins v has accepted (plus itself for sources).
  std::vector<std::unordered_set<Vertex>> known(n);
  for (Vertex s : sources) known[s].insert(s);
  // buffered arrivals of the current layer: (origin, sender, dist)
  std::vector<std::vector<std::tuple<Vertex, Vertex, std::uint32_t>>> buffer(n);
  // origins accepted at the previous layer boundary, to broadcast this layer
  std::vector<std::vector<Vertex>> pending(n);

  const auto program = [&](Vertex v, std::uint64_t round,
                           std::span<const congest::Message> inbox,
                           congest::Engine::Mailbox& mbox) {
    for (const auto& m : inbox) {
      buffer[v].emplace_back(static_cast<Vertex>(m.a), m.src,
                             static_cast<std::uint32_t>(m.b) + 1);
    }
    if (round == 0) {
      if (is_source[v]) {
        for (Vertex u : g.neighbors(v)) mbox.send(u, {.a = v, .b = 0});
      }
      return;
    }
    // Rounds 1 .. delta*cap are grouped into layers of `cap` rounds; the
    // first round of each layer processes the arrivals buffered during the
    // previous layer.
    const std::uint64_t layer_pos = (round - 1) % cap;
    if (layer_pos == 0) {
      auto& buf = buffer[v];
      std::sort(buf.begin(), buf.end(),
                [](const auto& x, const auto& y) {
                  return std::tie(std::get<0>(x), std::get<1>(x)) <
                         std::tie(std::get<0>(y), std::get<1>(y));
                });
      pending[v].clear();
      for (const auto& [o, u, d] : buf) {
        if (res.knowledge[v].size() >= cap) break;
        if (!known[v].insert(o).second) continue;
        res.knowledge[v].push_back({.origin = o, .dist = d, .parent = u});
        // Exploration is depth-bounded by δ: an origin learned at distance δ
        // is kept but not forwarded.
        if (d < delta) pending[v].push_back(o);
      }
      buf.clear();
    }
    if (layer_pos < pending[v].size()) {
      const Vertex o = pending[v][layer_pos];
      const std::uint32_t d = find_knowledge(res.knowledge[v], o)->dist;
      for (Vertex u : g.neighbors(v)) mbox.send(u, {.a = o, .b = d});
    }
  };
  // 1 announcement round + delta layers of cap rounds, the event-driven
  // charge.  Origins learned at distance δ are not forwarded, so layer delta
  // only takes in the last arrivals and sends nothing.
  congest::Engine engine(g, ledger);
  res.rounds_charged = engine.run_rounds(delta * cap + 1, program);
  res.messages = engine.messages_sent();

  for (Vertex s : sources) {
    res.popular[s] = res.knowledge[s].size() >= cap ? 1 : 0;
  }
  return res;
}

}  // namespace nas::core
