#include "refclock.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>

namespace bench {

namespace {

constexpr std::uint32_t kVertices = 16384;
// Nominal seconds per pass: the median pass times on the 4-core VM the
// benchmark was tuned on.  They only fix the scale of the adjusted timings,
// so that those read close to wall time on that host.
constexpr double kNominalSmall_s = 0.37e-3;
constexpr double kNominalLarge_s = 1.07e-3;

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64, private to the reference so nothing else can shift it.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

RefClock::RefClock()
    : small_(make(kVertices / 20, 11)),
      large_(make(kVertices * 11, 12)),
      dist_(kVertices),
      queue_(kVertices) {}

RefClock::Csr RefClock::make(std::uint32_t chords, std::uint64_t seed) {
  std::uint64_t state = seed;
  std::vector<std::uint32_t> label(kVertices);
  std::iota(label.begin(), label.end(), 0u);
  for (std::uint32_t i = kVertices - 1; i > 0; --i) {
    std::swap(label[i], label[mix(state) % (i + 1)]);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t v = 1; v < kVertices; ++v) {
    edges.emplace_back(v, static_cast<std::uint32_t>(mix(state) % v));
  }
  for (std::uint32_t k = 0; k < chords; ++k) {
    edges.emplace_back(static_cast<std::uint32_t>(mix(state) % kVertices),
                       static_cast<std::uint32_t>(mix(state) % kVertices));
  }
  Csr g;
  g.offsets.assign(kVertices + 1, 0);
  for (const auto& [u, v] : edges) {
    ++g.offsets[label[u] + 1];
    ++g.offsets[label[v] + 1];
  }
  std::partial_sum(g.offsets.begin(), g.offsets.end(), g.offsets.begin());
  g.targets.resize(g.offsets.back());
  std::vector<std::uint32_t> fill(g.offsets.begin(), g.offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    g.targets[fill[label[u]]++] = label[v];
    g.targets[fill[label[v]]++] = label[u];
  }
  return g;
}

std::uint32_t RefClock::bfs(const Csr& g, std::uint32_t source) {
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::fill(dist_.begin(), dist_.end(), kUnseen);
  std::uint32_t head = 0, tail = 0;
  dist_[source] = 0;
  queue_[tail++] = source;
  while (head < tail) {
    const std::uint32_t u = queue_[head++];
    for (std::uint32_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      const std::uint32_t v = g.targets[e];
      if (dist_[v] == kUnseen) {
        dist_[v] = dist_[u] + 1;
        queue_[tail++] = v;
      }
    }
  }
  return dist_[queue_[tail - 1]];
}

double RefClock::factor(Graph which, int passes) {
  const Csr& g = which == Graph::kSmall ? small_ : large_;
  const double t0 = wall_s();
  for (int i = 0; i < passes; ++i) {
    next_source_ = (next_source_ + 7919 + bfs(g, next_source_)) % kVertices;
  }
  const double pass_s = (wall_s() - t0) / passes;
  return (which == Graph::kSmall ? kNominalSmall_s : kNominalLarge_s) / pass_s;
}

}  // namespace bench
