// Experiment N1 — served-path latency: replay a query workload against a
// running nas_served over N concurrent connections.
//
// This is the client half of the network serving gate.  It generates the
// same deterministic workload the offline tools use (apps::make_query_workload
// — or replays an explicit --query-file), splits it into contiguous
// per-connection blocks, streams each block as BATCH chunks, and reassembles
// the reply lines back into workload order.  Because the server's answer
// lines are exactly apps::write_answers bytes, the reassembled --answers
// file must cmp equal to `nas_oracle --answers` for the same workload —
// that byte gate, plus the answer digest in the JSON artifact, is what CI
// checks; the latency percentiles are the perf side of the story.
//
//   ./serve_latency --port-file port.txt --workload zipf --queries 16000
//       --connections 4 --batch 64 --answers net_answers.txt
//       --json BENCH_net.json
//
// The vertex universe is discovered from the server's STATS line, so the
// client needs no graph flags at all — point it at a port and go.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "apps/query_workload.hpp"
#include "graph/graph.hpp"
#include "net/client.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace nas;

namespace {

/// Pulls one unsigned JSON field out of a flat stats line (the repo's JSON
/// is write-only, so this reader stays deliberately tiny).
[[nodiscard]] std::uint64_t json_field_u64(const std::string& json,
                                           const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error("STATS reply has no \"" + key +
                             "\" field: " + json);
  }
  return std::stoull(json.substr(at + needle.size()));
}

/// Parses the "<u> <v> <d>" answer line back to the distance ("inf" =
/// unreachable) for the digest; the line itself is kept verbatim for the
/// byte-identical answers file.
[[nodiscard]] std::uint32_t parse_answer_distance(const std::string& line) {
  const std::size_t last_space = line.find_last_of(' ');
  if (last_space == std::string::npos || last_space + 1 >= line.size()) {
    throw std::runtime_error("malformed answer line: \"" + line + "\"");
  }
  const std::string d = line.substr(last_space + 1);
  if (d == "inf") return graph::kInfDist;
  return static_cast<std::uint32_t>(std::stoul(d));
}

[[nodiscard]] double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);
    const std::string host =
        flags.str("host", "127.0.0.1", "server IPv4 address");
    const auto port_flag = util::Flags::in_range<std::uint16_t>(
        "port", flags.integer("port", 0, "server TCP port"));
    const std::string port_file = flags.str(
        "port-file", "", "read the port number from this file (nas_served "
                         "--port-file counterpart)");
    const auto connections = util::Flags::in_range<std::size_t>(
        "connections",
        flags.integer("connections", 4, "concurrent client connections"), 1);
    const auto batch = util::Flags::in_range<std::uint64_t>(
        "batch",
        flags.integer("batch", 64,
                      "queries per BATCH request (1 uses single Q lines)"),
        1);
    const std::string query_file = flags.str(
        "query-file", "", "replay 'u v' request lines from this file");
    const std::string workload = flags.str(
        "workload", "zipf", "generate requests: uniform|zipf");
    const auto num_queries = util::Flags::in_range<std::uint64_t>(
        "queries", flags.integer("queries", 10000, "generated requests"));
    const auto workload_seed = util::Flags::in_range<std::uint64_t>(
        "workload-seed",
        flags.integer("workload-seed", 1, "request-generator seed"));
    const double zipf_theta =
        flags.real("zipf-theta", 0.99, "zipf skew exponent");
    const std::string answers_path = flags.str(
        "answers", "", "write the reassembled 'u v d' lines here (workload "
                       "order; cmp-compatible with nas_oracle --answers)");
    const std::string json_path =
        flags.str("json", "BENCH_net.json", "perf JSON output path");
    const std::string metrics_path = flags.str(
        "metrics-json", "",
        "after the replay, send METRICS and write the server's reply line "
        "here (exercises the METRICS verb; CI key-set checks the schema)");
    if (flags.handle_help(
            "serve_latency — experiment N1: replay a workload against "
            "nas_served and measure round-trip latency")) {
      return 0;
    }
    flags.reject_unknown();

    std::uint16_t port = port_flag;
    if (!port_file.empty()) {
      std::ifstream in(port_file);
      unsigned long read_port = 0;
      if (!(in >> read_port) || read_port > 65535) {
        throw std::runtime_error("cannot read a port (0-65535) from " +
                                 port_file);
      }
      port = static_cast<std::uint16_t>(read_port);
    }
    if (port == 0) {
      throw std::invalid_argument("pass --port or --port-file");
    }

    // One probe connection discovers the universe (and proves liveness)
    // before any worker starts.
    std::uint64_t universe = 0;
    {
      net::LineClient probe(host, port);
      probe.send("STATS\n");
      const auto stats = probe.recv_line();
      if (!stats.has_value()) {
        throw std::runtime_error("server closed the probe connection");
      }
      universe = json_field_u64(*stats, "universe");
      probe.send("QUIT\n");
      static_cast<void>(probe.recv_line());  // BYE
    }
    if (universe == 0) {
      throw std::runtime_error("server reports an empty vertex universe");
    }

    std::vector<apps::Query> queries;
    if (!query_file.empty()) {
      queries = apps::read_query_file(query_file);
    } else {
      queries = apps::make_query_workload(
          static_cast<graph::Vertex>(universe),
          {workload, num_queries, workload_seed, zipf_theta});
    }
    if (queries.empty()) throw std::runtime_error("no requests to replay");

    std::cout << "serve_latency: " << queries.size() << " requests -> "
              << host << ":" << port << " over " << connections
              << " connections (BATCH " << batch << ", universe " << universe
              << ")\n";

    // Contiguous block split: connection c owns [begin, end) of the
    // workload, so reassembly is a straight copy and the answers file is in
    // workload order regardless of connection interleaving.
    std::vector<std::string> answer_lines(queries.size());
    std::vector<std::vector<double>> rtts(connections);
    std::vector<std::exception_ptr> failures(connections);
    std::vector<std::thread> workers;
    workers.reserve(connections);
    util::Timer wall;
    for (std::size_t c = 0; c < connections; ++c) {
      const std::size_t begin = queries.size() * c / connections;
      const std::size_t end = queries.size() * (c + 1) / connections;
      workers.emplace_back([&, c, begin, end] {
        try {
          net::LineClient client(host, port);
          std::string request;
          for (std::size_t at = begin; at < end;) {
            const std::size_t take =
                std::min<std::size_t>(end - at, static_cast<std::size_t>(batch));
            request.clear();
            if (take == 1 && batch == 1) {
              request = "Q " + std::to_string(queries[at].u) + " " +
                        std::to_string(queries[at].v) + "\n";
            } else {
              request = "BATCH " + std::to_string(take) + "\n";
              for (std::size_t i = 0; i < take; ++i) {
                request += std::to_string(queries[at + i].u);
                request += ' ';
                request += std::to_string(queries[at + i].v);
                request += '\n';
              }
            }
            util::Timer rtt;
            client.send(request);
            auto lines = client.recv_lines(take);
            rtts[c].push_back(rtt.millis());
            for (std::size_t i = 0; i < take; ++i) {
              answer_lines[at + i] = std::move(lines[i]);
            }
            at += take;
          }
          client.send("QUIT\n");
          static_cast<void>(client.recv_line());  // BYE
        } catch (...) {
          failures[c] = std::current_exception();
        }
      });
    }
    for (auto& worker : workers) worker.join();
    const double total_ms = wall.millis();
    for (const auto& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }

    // Digest over the parsed distances — comparable to the nas_oracle /
    // nas_serve stats digest for the same workload.
    std::vector<std::uint32_t> answers;
    answers.reserve(answer_lines.size());
    for (const auto& line : answer_lines) {
      answers.push_back(parse_answer_distance(line));
    }
    const std::uint64_t digest = apps::digest_answers(answers);

    std::vector<double> all_rtts;
    for (const auto& per_conn : rtts) {
      all_rtts.insert(all_rtts.end(), per_conn.begin(), per_conn.end());
    }
    std::sort(all_rtts.begin(), all_rtts.end());
    const double qps =
        total_ms > 0
            ? static_cast<double>(queries.size()) / (total_ms / 1000.0)
            : 0.0;

    std::cout << "  " << queries.size() << " answers in " << total_ms
              << " ms (" << static_cast<std::uint64_t>(qps) << " q/s), RTT "
              << "p50 " << percentile(all_rtts, 0.50) << " ms, p99 "
              << percentile(all_rtts, 0.99) << " ms, digest " << std::hex
              << digest << std::dec << "\n";

    if (!answers_path.empty()) {
      std::ofstream out(answers_path);
      if (!out) {
        throw std::runtime_error("cannot open answers file " + answers_path);
      }
      for (const auto& line : answer_lines) out << line << "\n";
    }

    if (!metrics_path.empty()) {
      // Post-replay METRICS snapshot over a fresh connection, so the file
      // reflects every batch this run served.
      net::LineClient metrics_client(host, port);
      metrics_client.send("METRICS\n");
      const auto metrics = metrics_client.recv_line();
      if (!metrics.has_value()) {
        throw std::runtime_error("server closed the METRICS connection");
      }
      metrics_client.send("QUIT\n");
      static_cast<void>(metrics_client.recv_line());  // BYE
      std::ofstream out(metrics_path);
      if (!out) {
        throw std::runtime_error("cannot open metrics file " + metrics_path);
      }
      out << *metrics << "\n";
      std::cout << "  wrote metrics to " << metrics_path << "\n";
    }

    if (!json_path.empty()) {
      const auto real = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.4f", v);
        return util::JsonValue::literal(buf);
      };
      const util::JsonObject fields{
          {"bench", util::JsonValue::str("serve_latency")},
          {"connections", util::JsonValue::number(
                              static_cast<std::uint64_t>(connections))},
          {"batch", util::JsonValue::number(batch)},
          {"queries", util::JsonValue::number(
                          static_cast<std::uint64_t>(queries.size()))},
          {"workload", util::JsonValue::str(
                           query_file.empty() ? workload : "file")},
          {"universe", util::JsonValue::number(universe)},
          {"total_ms", real(total_ms)},
          {"qps", real(qps)},
          {"rtt_p50_ms", real(percentile(all_rtts, 0.50))},
          {"rtt_p90_ms", real(percentile(all_rtts, 0.90))},
          {"rtt_p99_ms", real(percentile(all_rtts, 0.99))},
          {"rtt_max_ms",
           real(all_rtts.empty() ? 0.0 : all_rtts.back())},
          {"digest", util::JsonValue::hex64(digest)},
      };
      std::ofstream out(json_path);
      if (!out) {
        throw std::runtime_error("cannot open JSON file " + json_path);
      }
      out << "[" << util::render_json_object(fields) << "]\n";
      std::cout << "  wrote " << json_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "serve_latency: error: " << e.what() << "\n";
    return 2;
  }
}
