#include "apps/query_workload.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "graph/io.hpp"
#include "util/rng.hpp"

namespace nas::apps {

using graph::Vertex;

std::vector<Query> make_query_workload(Vertex n, const WorkloadSpec& spec) {
  if (n == 0) {
    throw std::invalid_argument("make_query_workload: n must be positive");
  }
  util::Xoshiro256 rng(spec.seed);
  std::vector<Query> queries;
  queries.reserve(spec.queries);

  if (spec.dist == "uniform") {
    for (std::uint64_t i = 0; i < spec.queries; ++i) {
      queries.push_back({static_cast<Vertex>(rng.below(n)),
                         static_cast<Vertex>(rng.below(n))});
    }
    return queries;
  }

  if (spec.dist == "zipf") {
    if (!(spec.zipf_theta > 0.0)) {
      throw std::invalid_argument(
          "make_query_workload: zipf theta must be positive");
    }
    // Rank r carries weight (r+1)^-theta; sampling inverts the cumulative
    // sum.  The rank->vertex map is a seeded Fisher-Yates permutation so the
    // hot sources are scattered over the ID space instead of clustering at
    // the low IDs every generator family assigns first.
    std::vector<double> cumulative(n);
    double total = 0.0;
    for (Vertex r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r) + 1.0, -spec.zipf_theta);
      cumulative[r] = total;
    }
    std::vector<Vertex> rank_to_vertex(n);
    for (Vertex v = 0; v < n; ++v) rank_to_vertex[v] = v;
    for (Vertex i = n - 1; i > 0; --i) {
      const auto j = static_cast<Vertex>(rng.below(i + 1));
      std::swap(rank_to_vertex[i], rank_to_vertex[j]);
    }
    for (std::uint64_t i = 0; i < spec.queries; ++i) {
      const double x = rng.uniform() * total;
      const auto it =
          std::upper_bound(cumulative.begin(), cumulative.end(), x);
      const auto rank = static_cast<std::size_t>(
          std::min<std::ptrdiff_t>(it - cumulative.begin(), n - 1));
      queries.push_back(
          {rank_to_vertex[rank], static_cast<Vertex>(rng.below(n))});
    }
    return queries;
  }

  throw std::invalid_argument("make_query_workload: unknown distribution \"" +
                              spec.dist + "\" (expected uniform|zipf)");
}

std::vector<Query> read_queries(std::istream& in, const std::string& name) {
  constexpr std::uint64_t kMaxVertex = std::numeric_limits<Vertex>::max();
  std::vector<Query> queries;
  graph::PairScanner scan(in);
  while (const graph::PairLine* rec = scan.next()) {
    if (rec->status != graph::PairLine::Status::kOk || rec->a > kMaxVertex ||
        rec->b > kMaxVertex) {
      throw std::runtime_error(name + ": malformed query line (expected 'u v')"
                               " at line " + std::to_string(rec->line));
    }
    queries.push_back(
        {static_cast<Vertex>(rec->a), static_cast<Vertex>(rec->b)});
  }
  return queries;
}

std::vector<Query> read_query_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open query file " + path);
  return read_queries(in, path);
}

void write_answers(const std::vector<Query>& queries,
                   const std::vector<std::uint32_t>& answers,
                   std::ostream& out) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out << queries[i].u << ' ' << queries[i].v << ' ';
    if (answers[i] == graph::kInfDist) {
      out << "inf";
    } else {
      out << answers[i];
    }
    out << '\n';
  }
}

}  // namespace nas::apps
