// Example: all-pairs approximate shortest paths from a near-additive
// spanner.
//
// Computing exact APSP costs O(n*m) BFS work; on the spanner it costs
// O(n*|H|), and near-additivity makes the answers almost exact for long
// distances — the regime the paper's introduction highlights (multiplicative
// spanners lose a factor 2k-1 there).
//
//   ./approx_shortest_paths [--n 1200] [--family torus] [--eps 0.25]
#include <iostream>

#include "core/elkin_matar.hpp"
#include "graph/apsp.hpp"
#include "graph/generators.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace nas;
  util::Flags flags(argc, argv);
  const auto n = util::Flags::in_range<graph::Vertex>(
      "n", flags.integer("n", 1200, "target vertex count"));
  const std::string family = flags.str("family", "torus", "workload family");
  const double eps = flags.real("eps", 0.25, "epsilon");
  const int kappa = util::Flags::in_range<int>(
      "kappa", flags.integer("kappa", 3, "kappa"));
  const double rho = flags.real("rho", 0.4, "rho");
  if (flags.handle_help(
          "approx_shortest_paths — APSP from a near-additive spanner")) {
    return 0;
  }
  flags.reject_unknown();

  const auto g = graph::make_workload(family, n, 77);
  std::cout << "graph: " << g.summary() << " (" << family << ")\n";

  const auto params = core::Params::practical(g.num_vertices(), eps, kappa, rho);
  const auto result = core::build_spanner(g, params, {.validate = false});
  std::cout << "spanner: " << result.spanner.num_edges() << " of "
            << g.num_edges() << " edges\n\n";

  util::Timer exact_timer;
  const graph::Apsp exact(g);
  const double exact_ms = exact_timer.millis();

  util::Timer approx_timer;
  const graph::Apsp approx(result.spanner);
  const double approx_ms = approx_timer.millis();

  // Error profile by distance.
  struct Bucket {
    std::uint64_t pairs = 0, exact_sum = 0, err_sum = 0, err_max = 0;
  };
  std::vector<Bucket> buckets(20);
  std::uint32_t max_d = 0;
  for (graph::Vertex u = 0; u < g.num_vertices(); ++u) {
    for (graph::Vertex v = u + 1; v < g.num_vertices(); ++v) {
      const auto d = exact.dist(u, v);
      if (d == graph::kInfDist || d == 0) continue;
      max_d = std::max(max_d, d);
      auto& b = buckets[std::min<std::size_t>(31 - __builtin_clz(d), 19)];
      ++b.pairs;
      b.exact_sum += d;
      const std::uint64_t err = approx.dist(u, v) - d;
      b.err_sum += err;
      b.err_max = std::max(b.err_max, err);
    }
  }

  util::Table t({"d_G range", "pairs", "mean additive err", "max additive err",
                 "mean relative err %"});
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto& b = buckets[i];
    if (b.pairs == 0) continue;
    // Assemble via += (GCC 12's -Wrestrict false positive PR105651 flags
    // `"[" + rvalue string`).
    std::string range = "[";
    range += std::to_string(1u << i);
    range += ",";
    range += std::to_string(2u << i);
    range += ")";
    t.add_row({range,
               std::to_string(b.pairs),
               util::Table::num(static_cast<double>(b.err_sum) / b.pairs),
               std::to_string(b.err_max),
               util::Table::num(100.0 * static_cast<double>(b.err_sum) /
                                static_cast<double>(b.exact_sum))});
  }
  t.print(std::cout);

  std::cout << "\nAPSP wall time: exact " << util::Table::num(exact_ms)
            << " ms on " << g.num_edges() << " edges vs approx "
            << util::Table::num(approx_ms) << " ms on "
            << result.spanner.num_edges() << " edges\n"
            << "diameter " << max_d << "; near-additive guarantee: error <= "
            << (params.stretch_multiplicative() - 1.0)
            << "*d + " << params.stretch_additive()
            << " — relative error decays on long distances.\n";
  return 0;
}
