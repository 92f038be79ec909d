// Asynchronous message-passing engine and Awerbuch's synchronizer α.
//
// Spanners entered distributed computing through synchronizers ([Awe85],
// [PU87] — the first two citations of the paper): structures that let a
// synchronous algorithm run on an asynchronous network.  This module
// provides both halves:
//
//  * `AsyncEngine` — discrete-event simulator: every sent message is
//    delivered after an adversarially-seeded delay in [1, max_delay];
//    virtual time advances event by event.  (FIFO per edge-direction, as
//    the classic model assumes.)
//
//  * `run_alpha_synchronized` — the α synchronizer: each node executes
//    rounds of an Engine::NodeProgram; round-r payload messages are
//    acknowledged, a node that has all its payloads acked is *safe* for r
//    and announces this to its neighbors, and a node enters round r+1 once
//    all neighbors are safe for r.  Message overhead is O(|E|) per round —
//    the overhead a sparse spanner overlay was invented to reduce.
//
// Executing a synchronous program through the synchronizer must produce
// bit-identical results to the synchronous engine; the test suite asserts
// this for BFS, min-ID flood and mixer programs, which is also a strong
// cross-check of both engines.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "congest/engine.hpp"
#include "graph/graph.hpp"

namespace nas::congest {

class AsyncEngine {
 public:
  struct Options {
    std::uint64_t seed = 1;
    std::uint32_t max_delay = 8;  ///< delays drawn uniformly from [1, max_delay]
  };

  /// Handler invoked on each delivery; may send further messages.
  class Port {
   public:
    void send(graph::Vertex to, Message m);

   private:
    friend class AsyncEngine;
    AsyncEngine* engine_ = nullptr;
    graph::Vertex from_ = graph::kInvalidVertex;
  };
  using Handler =
      std::function<void(graph::Vertex v, std::uint64_t now,
                         const Message& msg, Port& out)>;

  AsyncEngine(const graph::Graph& g, Options options);

  /// Queues an initial message from `from` to `to` at time 0.
  void inject(graph::Vertex from, graph::Vertex to, Message m);

  /// Runs until no events remain (or `max_events`).  Returns the virtual
  /// completion time (time of the last delivered message).
  std::uint64_t run(const Handler& handler, std::uint64_t max_events = 50'000'000);

  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] const graph::Graph& graph() const { return *g_; }

 private:
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;  // tie-break: FIFO / determinism
    graph::Vertex to;
    Message msg;
    bool operator>(const Event& o) const {
      return std::tie(time, seq) > std::tie(o.time, o.seq);
    }
  };

  std::uint64_t delay(graph::Vertex from, graph::Vertex to);
  void enqueue(graph::Vertex from, graph::Vertex to, Message m);

  const graph::Graph* g_;
  Options options_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  // Per directed edge: the delivery time of the last message sent on it;
  // later sends deliver no earlier (FIFO links).
  std::vector<std::uint64_t> last_delivery_;
  DirectedEdgeIndex dir_index_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t delivered_ = 0;
};

/// Result of an α-synchronized execution.
struct AlphaResult {
  std::uint64_t virtual_time = 0;       ///< async completion time
  std::uint64_t payload_messages = 0;   ///< synchronous algorithm's messages
  std::uint64_t control_messages = 0;   ///< acks + safety announcements
  std::uint64_t rounds = 0;             ///< synchronous rounds simulated
};

/// Runs `rounds` rounds of the synchronous `program` over the asynchronous
/// network, coordinated by synchronizer α.  The program observes exactly
/// the semantics of Engine::run_rounds (same inboxes, same order), so any
/// state it writes is identical to a synchronous execution.
AlphaResult run_alpha_synchronized(const graph::Graph& g,
                                   std::uint64_t rounds,
                                   const Engine::NodeProgram& program,
                                   AsyncEngine::Options options = {});

}  // namespace nas::congest
