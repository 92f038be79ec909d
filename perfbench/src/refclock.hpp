// The reference clock: a fixed workload of the benchmark's own that stands
// in for the cycle counter this host does not expose.
//
// On a shared VM the same step of the program runs 20-40% slower for tens of
// seconds at a time, and a process's CPU time slows with it.  A BFS pass over
// a fixed synthetic graph slows by the same factor when it runs right next
// to the step, so "step time x nominal pass time / measured pass time" is the
// step's time at the reference speed, and it no longer depends on when the
// run happened.  The reference code is compiled in its own library, never
// linked with the code under test, so no change to the program can move it.
#pragma once

#include <cstdint>
#include <vector>

namespace bench {

class RefClock {
 public:
  /// Which reference graph: `kSmall` has the working set of the spanner H
  /// (n = 16384, ~17k edges); `kLarge` that of the input graph G
  /// (~200k edges).  Each is a seeded random tree plus random chords over a
  /// random labelling, so passes touch memory in no useful order.
  enum class Graph { kSmall, kLarge };

  RefClock();

  /// Nominal / measured seconds per BFS pass, over `passes` passes from
  /// rotating sources: multiply a step's wall time by this to get its time
  /// at the reference speed.
  [[nodiscard]] double factor(Graph which, int passes);

 private:
  struct Csr {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> targets;
  };
  static Csr make(std::uint32_t chords, std::uint64_t seed);
  std::uint32_t bfs(const Csr& g, std::uint32_t source);

  Csr small_, large_;
  std::vector<std::uint32_t> dist_, queue_;
  std::uint32_t next_source_ = 0;  ///< depends on every pass's result
};

}  // namespace bench
