#include "congest/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace nas::congest {

using graph::Graph;
using graph::Vertex;

Engine::Engine(const Graph& g, Ledger* ledger) : g_(&g), ledger_(ledger) {
  const Vertex n = g.num_vertices();
  inbox_.resize(n);
  next_inbox_.resize(n);
  edge_offsets_.assign(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    edge_offsets_[v + 1] = edge_offsets_[v] + g.degree(v);
  }
  edge_used_round_.assign(edge_offsets_.back(), static_cast<std::uint64_t>(-1));
}

std::size_t Engine::edge_slot(Vertex from, Vertex to) const {
  const auto nb = g_->neighbors(from);
  const auto it = std::lower_bound(nb.begin(), nb.end(), to);
  if (it == nb.end() || *it != to) {
    throw std::invalid_argument("Engine: send to non-neighbor");
  }
  return edge_offsets_[from] + static_cast<std::size_t>(it - nb.begin());
}

void Engine::Mailbox::send(Vertex to, Message m) {
  Engine& e = engine_;
  const std::size_t slot = e.edge_slot(from_, to);
  if (e.edge_used_round_[slot] == e.current_round_) {
    throw std::logic_error(
        "CONGEST violation: two messages on one edge-direction in one round");
  }
  e.edge_used_round_[slot] = e.current_round_;
  m.src = from_;
  e.next_inbox_[to].push_back(m);
  ++e.messages_sent_;
  ++e.pending_count_;
  if (e.ledger_ != nullptr) e.ledger_->charge_messages(1);
}

void Engine::begin_run() {
  // Round numbering restarts at 0 on every run call; drop last run's stamps
  // so a legitimate send in round r is not mistaken for a re-send on an edge
  // used in the previous run's round r.
  std::fill(edge_used_round_.begin(), edge_used_round_.end(),
            static_cast<std::uint64_t>(-1));
}

void Engine::do_round(std::uint64_t round, const NodeProgram& program) {
  current_round_ = round;
  Mailbox mbox(*this);
  try {
    for (Vertex v = 0; v < g_->num_vertices(); ++v) {
      const auto& in = inbox_[v];
      mbox.from_ = v;
      program(v, round, std::span<const Message>(in.data(), in.size()), mbox);
    }
  } catch (...) {
    // A failed round leaves nothing in flight: neither what it was
    // delivering nor what it had staged reaches the next run.
    for (Vertex v = 0; v < g_->num_vertices(); ++v) {
      inbox_[v].clear();
      next_inbox_[v].clear();
    }
    pending_count_ = 0;
    throw;
  }
  pending_count_ = 0;
  for (Vertex v = 0; v < g_->num_vertices(); ++v) {
    inbox_[v].clear();
    inbox_[v].swap(next_inbox_[v]);
    pending_count_ += inbox_[v].size();
  }
  if (ledger_ != nullptr) ledger_->charge_rounds(1);
}

std::uint64_t Engine::run_rounds(std::uint64_t rounds, const NodeProgram& program) {
  begin_run();
  for (std::uint64_t r = 0; r < rounds; ++r) do_round(r, program);
  return rounds;
}

std::uint64_t Engine::run_until_quiescent(const NodeProgram& program,
                                          const std::function<bool()>& quiescent,
                                          std::uint64_t max_rounds) {
  begin_run();
  std::uint64_t r = 0;
  for (; r < max_rounds; ++r) {
    do_round(r, program);
    if (!in_flight() && quiescent()) return r + 1;
  }
  return r;
}

}  // namespace nas::congest
