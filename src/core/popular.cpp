#include "core/popular.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <unordered_set>

#include "congest/engine.hpp"

namespace nas::core {

using graph::Graph;
using graph::kInvalidVertex;
using graph::Vertex;

namespace {

std::uint64_t pair_key(Vertex v, Vertex origin) {
  return (static_cast<std::uint64_t>(v) << 32) | origin;
}

void validate(const Graph& g, const std::vector<Vertex>& sources,
              std::uint64_t delta, std::uint64_t cap) {
  if (delta == 0) throw std::invalid_argument("algorithm1: delta == 0");
  if (cap == 0) throw std::invalid_argument("algorithm1: cap == 0");
  for (Vertex s : sources) {
    if (s >= g.num_vertices()) {
      throw std::invalid_argument("algorithm1: source out of range");
    }
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

  // (vertex, origin) pairs already accepted (or origin == vertex).
  std::unordered_set<std::uint64_t> known;
  known.reserve(sources.size() * 4);

  // Frontier: per vertex, the origins accepted in the previous layer that
  // must be forwarded in this layer.  Layer 0: every source announces itself.
  std::vector<std::pair<Vertex, std::vector<Vertex>>> frontier;
  {
    std::vector<Vertex> sorted_sources = sources;
    std::sort(sorted_sources.begin(), sorted_sources.end());
    for (Vertex s : sorted_sources) {
      known.insert(pair_key(s, s));
      frontier.push_back({s, {s}});
    }
  }

  // arrival = (receiver, origin, sender); sorted per layer for determinism.
  std::vector<std::tuple<Vertex, Vertex, Vertex>> arrivals;

  for (std::uint64_t layer = 1; layer <= delta && !frontier.empty(); ++layer) {
    arrivals.clear();
    for (const auto& [u, origins] : frontier) {
      // Broadcasting k origins over a cap-round layer puts k <= cap messages
      // on each incident edge-direction: the CONGEST window invariant.
      res.max_edge_layer_load =
          std::max<std::uint64_t>(res.max_edge_layer_load, origins.size());
      for (Vertex w : g.neighbors(u)) {
        for (Vertex o : origins) arrivals.emplace_back(w, o, u);
      }
      res.messages += origins.size() * g.degree(u);
    }
    std::sort(arrivals.begin(), arrivals.end());

    std::vector<std::pair<Vertex, std::vector<Vertex>>> next;
    Vertex current = kInvalidVertex;
    std::vector<Vertex>* bucket = nullptr;
    for (const auto& [w, o, u] : arrivals) {
      if (res.knowledge[w].size() >= cap) continue;  // list full: discard
      if (!known.insert(pair_key(w, o)).second) continue;  // already known
      res.knowledge[w].push_back(
          {.origin = o, .dist = static_cast<std::uint32_t>(layer), .parent = u});
      if (w != current) {
        next.push_back({w, {}});
        bucket = &next.back().second;
        current = w;
      }
      bucket->push_back(o);
    }
    frontier = std::move(next);
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
                           congest::Mailbox& mbox) {
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
        if (d > delta) continue;  // exploration is depth-bounded by δ
        if (res.knowledge[v].size() >= cap) break;
        if (!known[v].insert(o).second) continue;
        res.knowledge[v].push_back({.origin = o, .dist = d, .parent = u});
        pending[v].push_back(o);
      }
      buf.clear();
    }
    if (layer_pos < pending[v].size()) {
      const Vertex o = pending[v][layer_pos];
      const std::uint32_t d = find_knowledge(res.knowledge[v], o)->dist;
      for (Vertex u : g.neighbors(v)) mbox.send(u, {.a = o, .b = d});
    }
  };
  // 1 announcement round + delta layers of cap rounds + 1 boundary round to
  // process the final layer's arrivals.
  congest::Engine engine(g, ledger);
  res.rounds_charged = engine.run_rounds(delta * cap + 2, program);
  // Flush the final boundary (the engine already ran it as the last round's
  // layer_pos == 0 processing only if (delta*cap+1 - 1) % cap == 0, which it
  // is: round delta*cap+1 begins layer delta+1).
  res.messages = engine.messages_sent();

  for (Vertex s : sources) {
    res.popular[s] = res.knowledge[s].size() >= cap ? 1 : 0;
  }
  return res;
}

}  // namespace nas::core
