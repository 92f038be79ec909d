// nas_served — long-running socket daemon serving the sharded cluster.
//
// Where nas_serve answers one batch and exits, nas_served binds a TCP port
// and answers the src/net line protocol until stopped:
//
//   Q <u> <v>   ->  "<u> <v> <d>"        (one line, nas_serve byte format)
//   BATCH <n>   +   n "<u> <v>" lines -> n answer lines in request order
//   STATS       ->  one cluster+server stats JSON line
//   METRICS     ->  one metrics JSON line (work histograms, metrics digest)
//   QUIT        ->  "BYE", then the connection closes
//
//   # build from a generated graph and serve on an ephemeral port
//   ./nas_served --family er --n 2000 --eps 0.25 --shards 8 --port 0
//                --port-file port.txt
//
//   # warm from a snapshot, fixed port, 30s idle timeout
//   ./nas_served --load oracle.naso --shards 4 --port 7979
//                --idle-timeout-ms 30000
//
// The daemon prints "listening on <host>:<port>" to stderr once ready (and
// writes the bare port number to --port-file, for scripts that asked for
// port 0).  SIGINT/SIGTERM stop it gracefully: the listen socket closes,
// in-flight batches finish and flush (bounded by --drain-timeout-ms), then
// the process exits 0.  A second signal exits immediately.
//
// Answer lines are byte-identical to nas_serve's for the same requests at
// every --shards/--partition/--threads value — CI's serving gate replays a
// workload through bench/serve_latency and cmp's the transcript against the
// one-shard nas_serve answers file, at several shard counts.  The cluster
// flags (tools/cluster_flags.hpp) are the same as nas_serve's.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>

#include "cluster_flags.hpp"
#include "net/server.hpp"
#include "serve/cluster.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

using namespace nas;

namespace {

std::atomic<net::Server*> g_server{nullptr};

extern "C" void handle_stop_signal(int /*signum*/) {
  net::Server* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->request_stop();  // async-signal-safe
}

void install_stop_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the self-pipe wakes the loop anyway
  if (::sigaction(SIGINT, &action, nullptr) != 0 ||
      ::sigaction(SIGTERM, &action, nullptr) != 0) {
    throw std::runtime_error("nas_served: cannot install signal handlers");
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);

    // Cluster source and shape: the same flags as nas_serve.
    const tools::ClusterFlags cluster_flags(flags);

    // Daemon flags.
    const std::string listen =
        flags.str("listen", "127.0.0.1", "IPv4 address to bind");
    const auto port = util::Flags::in_range<std::uint16_t>(
        "port",
        flags.integer("port", 0, "TCP port, 0 = kernel-assigned ephemeral"));
    const std::string port_file = flags.str(
        "port-file", "",
        "write the bound port number to this file once listening");
    const auto max_conns = util::Flags::in_range<std::size_t>(
        "max-conns",
        flags.integer("max-conns", 256,
                      "concurrent connections before \"ERR server busy\""));
    const auto idle_timeout_ms = util::Flags::in_range<std::uint64_t>(
        "idle-timeout-ms",
        flags.integer("idle-timeout-ms", 60000,
                      "close connections idle this long, 0 = off"));
    const auto max_batch = util::Flags::in_range<std::uint64_t>(
        "max-batch",
        flags.integer("max-batch", 1 << 16, "largest accepted BATCH count"));
    const auto queue_depth = util::Flags::in_range<std::size_t>(
        "queue-depth",
        flags.integer("queue-depth", 64,
                      "bridge jobs buffered before backpressure"));
    const auto drain_timeout_ms = util::Flags::in_range<std::uint64_t>(
        "drain-timeout-ms",
        flags.integer(
            "drain-timeout-ms", 5000,
            "graceful-shutdown bound for flushing in-flight batches"));
    const std::string stats_path = flags.str(
        "stats-json", "",
        "write final cluster + server stats JSON here on clean shutdown");

    if (flags.handle_help(
            "nas_served — serve the sharded distance-oracle cluster over a "
            "TCP line protocol")) {
      return 0;
    }
    flags.reject_unknown();

    serve::ShardedCluster cluster = cluster_flags.make_cluster();
    std::cerr << "cluster: " << cluster.num_shards() << " shards ("
              << cluster.partitioner().name() << " partition), "
              << cluster.shard(0).summary() << " per shard\n";

    net::ServerOptions server_options;
    server_options.listen = listen;
    server_options.port = port;
    server_options.max_conns = max_conns;
    server_options.idle_timeout_ms = idle_timeout_ms;
    server_options.max_batch = max_batch;
    server_options.queue_depth = queue_depth;
    server_options.serve_threads = cluster_flags.threads();
    server_options.drain_timeout_ms = drain_timeout_ms;

    net::Server server(cluster, server_options);
    g_server.store(&server, std::memory_order_release);
    install_stop_handlers();

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      if (!out) {
        throw std::runtime_error("cannot open port file " + port_file);
      }
      out << server.port() << "\n";
    }
    std::cerr << "listening on " << listen << ":" << server.port() << "\n";

    server.run();
    g_server.store(nullptr, std::memory_order_release);

    const net::ServerTotals& totals = server.totals();
    std::cerr << "served " << totals.requests << " requests ("
              << totals.batches << " batches) over "
              << totals.connections_accepted << " connections ("
              << totals.connections_rejected << " rejected, "
              << totals.idle_closed << " idle-closed, "
              << totals.protocol_errors << " protocol errors)\n";

    if (!stats_path.empty()) {
      util::JsonObject fields =
          serve::cluster_stats_fields(cluster, totals.cluster);
      // run() has closed every connection by now.
      net::append_server_fields(totals, 0, &fields);
      std::ofstream out(stats_path);
      if (!out) {
        throw std::runtime_error("cannot open stats file " + stats_path);
      }
      out << util::render_json_object(fields) << "\n";
      std::cerr << "wrote stats to " << stats_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nas_served: error: " << e.what() << "\n";
    return 2;
  }
}
