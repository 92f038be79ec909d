// Exact synchronous CONGEST round engine.
//
// Executes an arbitrary node program round by round:
//   * at the beginning of round r every vertex receives the messages its
//     neighbors sent during round r-1, in ascending sender-ID order, so
//     executions are deterministic.  Execution order is what guarantees
//     it: vertices run (and send) in ascending ID, and each sends at most
//     one message per edge direction per round, so every inbox fills in
//     sender order and needs no sort,
//   * during round r every vertex may send at most ONE message per incident
//     edge per direction; a second send on the same edge in the same round
//     throws std::logic_error (that is the CONGEST bandwidth constraint),
//   * message payloads are at most `Message::kWords` machine words = O(1)
//     words = O(log n) bits, as the model requires.
//
// This engine favors clarity over speed; it is the one reference execution.
// The intricate spanner protocols in src/core use event-driven executions
// for performance and are cross-checked against it (the test suite, and
// core::BuildOptions::cross_check_alg1).
//
// Messages sent in a run's last round are delivered in round 0 of the next
// run on the same engine.  A run that throws leaves nothing in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "congest/ledger.hpp"
#include "graph/graph.hpp"

namespace nas::congest {

struct Message {
  static constexpr int kWords = 3;
  graph::Vertex src = graph::kInvalidVertex;  // filled in by the engine
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class Engine {
 public:
  /// Per-round sending surface handed to node programs.
  class Mailbox {
   public:
    /// Sends `m` to neighbor `to` this round.  Throws std::logic_error on a
    /// second send over the same edge direction in one round (CONGEST
    /// violation) and std::invalid_argument for non-neighbors.
    void send(graph::Vertex to, Message m);

   private:
    friend class Engine;
    explicit Mailbox(Engine& engine) : engine_(engine) {}

    Engine& engine_;
    graph::Vertex from_ = graph::kInvalidVertex;  // the vertex now running
  };

  /// Node program: called once per vertex per round with the messages that
  /// arrived this round.  `round` is 0-based.
  using NodeProgram = std::function<void(graph::Vertex v, std::uint64_t round,
                                         std::span<const Message> inbox,
                                         Mailbox& out)>;

  explicit Engine(const graph::Graph& g, Ledger* ledger = nullptr);

  /// Runs exactly `rounds` rounds.  Returns the number of rounds executed.
  std::uint64_t run_rounds(std::uint64_t rounds, const NodeProgram& program);

  /// Runs until a round in which no messages are in flight and `quiescent`
  /// returns true, or until `max_rounds`.  Returns rounds executed.
  std::uint64_t run_until_quiescent(const NodeProgram& program,
                                    const std::function<bool()>& quiescent,
                                    std::uint64_t max_rounds);

  [[nodiscard]] const graph::Graph& graph() const { return *g_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  /// The slot of directed edge (from, to) in edge_used_round_: from's
  /// offset plus the rank of `to` in from's sorted neighbor list.  Throws
  /// std::invalid_argument for non-neighbors.
  std::size_t edge_slot(graph::Vertex from, graph::Vertex to) const;

  void begin_run();  // per-run reset of the bandwidth guard
  void do_round(std::uint64_t round, const NodeProgram& program);
  bool in_flight() const { return pending_count_ > 0; }

  const graph::Graph* g_;
  Ledger* ledger_;
  // outgoing[v]: messages v sent this round; delivered at next round start.
  std::vector<std::vector<Message>> inbox_;
  std::vector<std::vector<Message>> next_inbox_;
  // Per-round used-edge guard: (sender, receiver) pairs already used.
  std::vector<std::uint64_t> edge_used_round_;  // per directed-edge slot
  std::vector<std::size_t> edge_offsets_;  // size n+1: degree prefix sums
  std::uint64_t current_round_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::size_t pending_count_ = 0;
};

}  // namespace nas::congest
