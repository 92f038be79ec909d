// nasbench — the benchmark driver's compiled half.  perfbench/run.py builds
// it, prepares the inputs with it, and runs one workload through it:
//
//   nasbench gen       --n N --seed S --out graph.txt
//   nasbench reference --snapshot snap.naso2 --stream uniform|hot --seed S
//                      --size full --out ref.bin
//   nasbench construct --graph graph.txt --seed S --size full --work-dir DIR
//   nasbench serve     --stream uniform|hot --snapshot snap.naso2 --ref ref.bin
//                      --daemon nas_served --seed S --seconds T --size full
//   nasbench trace     --workload W --graph graph.txt --snapshot snap.naso2
//                      --ref ref.bin --daemon nas_served --seed S --size full
//                      --work-dir DIR
//
// Each workload command prints one JSON result line on stdout; run.py merges
// the construct processes and completes the end-to-end metric set.
#include <iostream>
#include <string>

#include "inputs.hpp"
#include "workloads.hpp"

namespace bench {

int cmd_gen(Args& args) {
  const auto n = static_cast<std::uint32_t>(args.integer("n"));
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const std::string out = args.str("out");
  args.reject_unknown();
  write_edge_list(make_geometric(n, seed), out);
  return 0;
}

}  // namespace bench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: nasbench gen|reference|construct|serve|trace "
                 "--key value ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    bench::Args args(argc, argv, 2);
    if (cmd == "gen") return bench::cmd_gen(args);
    if (cmd == "reference") return bench::cmd_reference(args);
    if (cmd == "construct") return bench::cmd_construct(args);
    if (cmd == "serve") return bench::cmd_serve(args);
    if (cmd == "trace") return bench::cmd_trace(args);
    std::cerr << "nasbench: unknown command " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "nasbench " << cmd << ": error: " << e.what() << "\n";
    return 1;
  }
}
