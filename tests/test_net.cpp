// Tests for the nas_served network layer (src/net): protocol parsing and
// framing units, then loopback integration against a real Server on an
// ephemeral port — answer bytes identical to a direct cluster.serve across
// shard counts, a malformed-request corpus with the documented keep-open /
// close split, graceful shutdown with a batch in flight, idle timeouts, and
// the max-conns turn-away.  The server runs in a std::thread and the
// BatchBridge worker makes a third; the TSan CI job runs this binary to
// check that handoff.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/query_workload.hpp"
#include "core/elkin_matar.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/cluster.hpp"

namespace {

using namespace nas;
using net::LineClient;
using net::LineStatus;
using net::ParseOutcome;
using net::Request;
using net::Server;
using net::ServerOptions;
using serve::ShardedCluster;

// --- protocol units ----------------------------------------------------------

TEST(Protocol, NextLineFramesIncrementally) {
  std::string buffer = "Q 1 2";
  std::size_t pos = 0;
  std::string line;
  EXPECT_EQ(net::next_line(buffer, &pos, 64, &line), LineStatus::kNeedMore);
  buffer += "\nQ 3 4\r\n";
  EXPECT_EQ(net::next_line(buffer, &pos, 64, &line), LineStatus::kLine);
  EXPECT_EQ(line, "Q 1 2");
  EXPECT_EQ(net::next_line(buffer, &pos, 64, &line), LineStatus::kLine);
  EXPECT_EQ(line, "Q 3 4");  // \r\n stripped
  EXPECT_EQ(net::next_line(buffer, &pos, 64, &line), LineStatus::kNeedMore);
  EXPECT_EQ(pos, buffer.size());
}

TEST(Protocol, NextLineReportsOverlongOnlyWithoutTerminator) {
  const std::string long_line(100, 'a');
  std::size_t pos = 0;
  std::string line;
  // 100 buffered bytes, no '\n', cap 64: framing is lost.
  EXPECT_EQ(net::next_line(long_line, &pos, 64, &line), LineStatus::kOverlong);
  // The same bytes terminated are just a long (invalid) command line.
  pos = 0;
  const std::string terminated = long_line + "\n";
  EXPECT_EQ(net::next_line(terminated, &pos, 200, &line), LineStatus::kLine);
  EXPECT_EQ(line, long_line);
}

TEST(Protocol, ParseRequestLineAcceptsTheFiveCommands) {
  const auto q = net::parse_request_line("Q 3 17", 100, 1024);
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(q.request.kind, Request::Kind::kQuery);
  EXPECT_EQ(q.request.query.u, 3u);
  EXPECT_EQ(q.request.query.v, 17u);

  const auto b = net::parse_request_line("BATCH 42", 100, 1024);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(b.request.kind, Request::Kind::kBatch);
  EXPECT_EQ(b.request.batch_size, 42u);

  EXPECT_EQ(net::parse_request_line("STATS", 100, 1024).request.kind,
            Request::Kind::kStats);
  EXPECT_EQ(net::parse_request_line("METRICS", 100, 1024).request.kind,
            Request::Kind::kMetrics);
  EXPECT_EQ(net::parse_request_line("QUIT", 100, 1024).request.kind,
            Request::Kind::kQuit);

  // Argument-free verbs reject trailing tokens (recoverable).
  const auto stats_arg = net::parse_request_line("STATS now", 100, 1024);
  EXPECT_FALSE(stats_arg.ok);
  EXPECT_FALSE(stats_arg.fatal);
  const auto metrics_arg = net::parse_request_line("METRICS now", 100, 1024);
  EXPECT_FALSE(metrics_arg.ok);
  EXPECT_FALSE(metrics_arg.fatal);
  EXPECT_NE(metrics_arg.error.find("METRICS takes no arguments"),
            std::string::npos);
}

TEST(Protocol, RecoverableErrorsKeepFramingFatalOnesDoNot) {
  // Unknown command and bad vertex ids leave the stream position known:
  // the line was consumed, the next line is a fresh command.
  const auto unknown = net::parse_request_line("PING", 100, 1024);
  EXPECT_FALSE(unknown.ok);
  EXPECT_FALSE(unknown.fatal);
  EXPECT_NE(unknown.error.find("unknown command"), std::string::npos);

  const auto range = net::parse_request_line("Q 0 100", 100, 1024);
  EXPECT_FALSE(range.ok);
  EXPECT_FALSE(range.fatal);
  EXPECT_NE(range.error.find("out of range"), std::string::npos);

  EXPECT_FALSE(net::parse_request_line("Q 1", 100, 1024).ok);
  EXPECT_FALSE(net::parse_request_line("Q 1 2 3", 100, 1024).ok);

  // A BATCH header that does not parse leaves the body length unknown —
  // every following line is ambiguous, so the outcome is fatal.
  EXPECT_TRUE(net::parse_request_line("BATCH x", 100, 1024).fatal);
  EXPECT_TRUE(net::parse_request_line("BATCH", 100, 1024).fatal);
  EXPECT_TRUE(net::parse_request_line("BATCH 9999999", 100, 1024).fatal);
}

TEST(Protocol, ParseBatchLineAndBlankLines) {
  const auto ok = net::parse_batch_line("5 6", 100);
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.request.query.u, 5u);
  EXPECT_EQ(ok.request.query.v, 6u);
  EXPECT_FALSE(net::parse_batch_line("5", 100).ok);
  EXPECT_FALSE(net::parse_batch_line("5 100", 100).ok);
  EXPECT_TRUE(net::is_blank_line(""));
  EXPECT_TRUE(net::is_blank_line(" \t "));
  EXPECT_FALSE(net::is_blank_line(" Q"));
}

// --- loopback fixture --------------------------------------------------------

struct Built {
  graph::Graph spanner;
  double mult = 0;
  double add = 0;
  graph::Vertex n = 0;
};

const Built& built() {
  static const Built b = [] {
    const graph::Graph g = graph::make_workload("er", 300, 7);
    const auto params = core::Params::practical(g.num_vertices(), 0.5, 3, 0.4);
    auto result = core::build_spanner(g, params, {.validate = false});
    return Built{std::move(result.spanner),
                 result.params.stretch_multiplicative(),
                 result.params.stretch_additive(), g.num_vertices()};
  }();
  return b;
}

/// One server on an ephemeral loopback port, run() on its own thread.  The
/// destructor double-stops (graceful, then immediate) so a failing test
/// never wedges the suite.
struct TestServer {
  ShardedCluster cluster;
  Server server;
  std::thread thread;

  explicit TestServer(ServerOptions options = {}, unsigned shards = 2)
      : cluster(built().spanner, built().mult, built().add,
                {.shards = shards, .partition = "hash"}),
        server(cluster, options),
        thread([this] { server.run(); }) {}

  ~TestServer() {
    server.request_stop();
    server.request_stop();
    if (thread.joinable()) thread.join();
  }

  [[nodiscard]] LineClient connect() const {
    return LineClient("127.0.0.1", server.port());
  }
};

/// The reference bytes: a fresh cluster with the same spec served directly,
/// rendered through the same write_answers the CLIs use.
std::vector<std::string> expected_lines(const std::vector<apps::Query>& batch,
                                        unsigned shards) {
  ShardedCluster cluster(built().spanner, built().mult, built().add,
                         {.shards = shards, .partition = "hash"});
  const auto answers = cluster.serve(batch, 1);
  std::ostringstream out;
  apps::write_answers(batch, answers, out);
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// --- integration -------------------------------------------------------------

TEST(NetServer, SingleQueriesMatchDirectServe) {
  TestServer ts;
  auto client = ts.connect();
  const auto batch =
      apps::make_query_workload(built().n, {"uniform", 40, 21, 0.99});
  const auto expected = expected_lines(batch, 2);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    client.send("Q " + std::to_string(batch[i].u) + " " +
                std::to_string(batch[i].v) + "\n");
    const auto reply = client.recv_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, expected[i]) << "query " << i;
  }
}

TEST(NetServer, BatchAnswersAreByteIdenticalAcrossShardCounts) {
  const auto batch =
      apps::make_query_workload(built().n, {"zipf", 300, 11, 0.99});
  const auto expected = expected_lines(batch, 1);
  for (const unsigned shards : {1u, 2u, 8u}) {
    TestServer ts({}, shards);
    auto client = ts.connect();
    std::string request = "BATCH " + std::to_string(batch.size()) + "\n";
    for (const auto& q : batch) {
      request += std::to_string(q.u) + " " + std::to_string(q.v) + "\n";
    }
    client.send(request);
    EXPECT_EQ(client.recv_lines(batch.size()), expected)
        << "shards=" << shards;
  }
}

TEST(NetServer, PipelinedCommandsAnswerInOrder) {
  TestServer ts;
  auto client = ts.connect();
  const auto batch =
      apps::make_query_workload(built().n, {"uniform", 6, 5, 0.99});
  const auto expected = expected_lines(batch, 2);
  // Everything in one write: three Q lines, a BATCH, then QUIT.  The server
  // must answer strictly in command order and close after BYE.
  std::string request;
  for (std::size_t i = 0; i < 3; ++i) {
    request += "Q " + std::to_string(batch[i].u) + " " +
               std::to_string(batch[i].v) + "\n";
  }
  request += "BATCH 3\n";
  for (std::size_t i = 3; i < 6; ++i) {
    request += std::to_string(batch[i].u) + " " + std::to_string(batch[i].v) +
               "\n";
  }
  request += "QUIT\n";
  client.send(request);
  EXPECT_EQ(client.recv_lines(6), expected);
  EXPECT_EQ(client.recv_line(), std::optional<std::string>("BYE"));
  EXPECT_EQ(client.recv_line(), std::nullopt);  // closed after BYE
}

TEST(NetServer, StatsIsOneJsonObjectLine) {
  TestServer ts;
  auto client = ts.connect();
  client.send("Q 0 1\nSTATS\n");
  ASSERT_TRUE(client.recv_line().has_value());
  const auto stats = client.recv_line();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->front(), '{');
  EXPECT_EQ(stats->back(), '}');
  // The STATS schema, which `nas_served --stats-json` shares: the cluster
  // core (serve::cluster_stats_fields) plus the server's connection
  // counters.
  for (const char* key :
       {"shards", "partition", "universe", "requests", "shards_used",
        "cache_hits", "bfs_passes", "evictions", "edges_inspected",
        "row_bytes", "shard_requests", "counter_digest",
        "connections_accepted", "connections_open", "served_requests",
        "served_batches", "stats_requests", "metrics_requests",
        "protocol_errors"}) {
    EXPECT_NE(stats->find(std::string("\"") + key + "\":"),
              std::string::npos)
        << key;
  }
}

TEST(NetServer, MetricsIsOneJsonObjectLine) {
  TestServer ts;
  auto client = ts.connect();
  client.send("Q 0 1\nMETRICS\n");
  ASSERT_TRUE(client.recv_line().has_value());
  const auto metrics = client.recv_line();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->front(), '{');
  EXPECT_EQ(metrics->back(), '}');
  for (const char* key :
       {"shards", "serve_calls", "batch_requests_le", "batch_requests_count",
        "batch_requests_total", "batch_requests_sum", "metrics_digest",
        "serve_latency_ms_le", "serve_latency_ms_count",
        "serve_latency_ms_total", "serve_latency_ms_sum"}) {
    EXPECT_NE(metrics->find(std::string("\"") + key + "\":"),
              std::string::npos)
        << key;
  }
}

TEST(NetServer, SnapshotsUnderLoadAreRaceFree) {
  // Regression for the STATS-under-load race: snapshots used to read the
  // loop thread's view of cluster counters while the bridge worker was
  // serving a batch into them.  Both now flow through the bridge FIFO, so a
  // client hammering STATS/METRICS while another streams batches must stay
  // clean — the TSan CI lane runs this test to prove it.
  const auto batch =
      apps::make_query_workload(built().n, {"zipf", 64, 17, 0.99});
  std::string request = "BATCH " + std::to_string(batch.size()) + "\n";
  for (const auto& q : batch) {
    request += std::to_string(q.u) + " " + std::to_string(q.v) + "\n";
  }
  TestServer ts({}, 2);
  std::thread streamer([&] {
    auto client = ts.connect();
    for (int pass = 0; pass < 20; ++pass) {
      client.send(request);
      (void)client.recv_lines(batch.size());
    }
    client.send("QUIT\n");
    (void)client.recv_line();
  });
  {
    auto poller = ts.connect();
    for (int pass = 0; pass < 40; ++pass) {
      poller.send(pass % 2 == 0 ? "STATS\n" : "METRICS\n");
      const auto snapshot = poller.recv_line();
      ASSERT_TRUE(snapshot.has_value());
      EXPECT_EQ(snapshot->front(), '{');
      EXPECT_EQ(snapshot->back(), '}');
    }
  }
  streamer.join();
  // The drained totals agree with what the streamer sent.
  ts.server.request_stop();
  ts.thread.join();
  EXPECT_EQ(ts.server.totals().requests, 20 * batch.size());
  EXPECT_EQ(ts.server.totals().stats_requests, 20u);
  EXPECT_EQ(ts.server.totals().metrics_requests, 20u);
}

TEST(NetServer, MalformedRequestCorpus) {
  TestServer ts;
  auto client = ts.connect();

  // Recoverable: each gets one ERR line and the connection stays usable.
  const struct {
    const char* line;
    const char* needle;
  } kRecoverable[] = {
      {"PING\n", "unknown command"},
      {"Q 1\n", "expects"},
      {"Q 0 999999\n", "out of range"},
      {"Q a b\n", "vertex"},
  };
  for (const auto& bad : kRecoverable) {
    client.send(bad.line);
    const auto reply = client.recv_line();
    ASSERT_TRUE(reply.has_value()) << bad.line;
    EXPECT_EQ(reply->rfind("ERR ", 0), 0u) << *reply;
    EXPECT_NE(reply->find(bad.needle), std::string::npos) << *reply;
  }
  // Still open: a well-formed query answers normally.
  client.send("Q 0 0\n");
  EXPECT_EQ(client.recv_line(), std::optional<std::string>("0 0 0"));

  // A bad batch body line poisons that batch only: one ERR for the batch,
  // then the connection keeps serving.
  client.send("BATCH 2\n1 2\nnot a pair\nQ 0 0\n");
  auto reply = client.recv_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR ", 0), 0u) << *reply;
  EXPECT_EQ(client.recv_line(), std::optional<std::string>("0 0 0"));

  // Fatal: an unparseable BATCH header loses framing — ERR, then close.
  client.send("BATCH nope\n");
  reply = client.recv_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR ", 0), 0u) << *reply;
  EXPECT_EQ(client.recv_line(), std::nullopt);
}

TEST(NetServer, OverlongLineClosesAfterError) {
  ServerOptions options;
  options.max_line_bytes = 64;
  TestServer ts(options);
  auto client = ts.connect();
  client.send(std::string(100, 'a'));  // no terminator, over the cap
  const auto reply = client.recv_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find("exceeds"), std::string::npos) << *reply;
  EXPECT_EQ(client.recv_line(), std::nullopt);
}

TEST(NetServer, TruncatedBatchIsDiagnosedOnEof) {
  TestServer ts;
  auto client = ts.connect();
  client.send("BATCH 3\n1 2\n");
  client.shutdown_write();  // EOF with 2 body lines missing
  const auto reply = client.recv_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find("truncated BATCH"), std::string::npos) << *reply;
  EXPECT_NE(reply->find("2 body line"), std::string::npos) << *reply;
  EXPECT_EQ(client.recv_line(), std::nullopt);
}

TEST(NetServer, GracefulShutdownDeliversInFlightBatch) {
  const auto batch =
      apps::make_query_workload(built().n, {"zipf", 400, 31, 0.99});
  const auto expected = expected_lines(batch, 2);
  TestServer ts;
  auto client = ts.connect();
  std::string request = "BATCH " + std::to_string(batch.size()) + "\n";
  for (const auto& q : batch) {
    request += std::to_string(q.u) + " " + std::to_string(q.v) + "\n";
  }
  client.send(request);
  // A send() that returned only means the bytes left the client; stop now
  // and the server may close before ever reading them.  Poll STATS on a
  // probe connection until the server has accepted the batch — from then on
  // it is in flight (or already flushed) and the drain contract applies.
  {
    auto probe = ts.connect();
    for (;;) {
      probe.send("STATS\n");
      const auto stats = probe.recv_line();
      ASSERT_TRUE(stats.has_value());
      if (stats->find("\"served_batches\": 1") != std::string::npos) break;
      std::this_thread::yield();
    }
  }
  // Stop while the batch is in the bridge: the drain must still deliver
  // every answer, then close the connection, then run() returns.
  ts.server.request_stop();
  EXPECT_EQ(client.recv_lines(batch.size()), expected);
  EXPECT_EQ(client.recv_line(), std::nullopt);
  ts.thread.join();
  EXPECT_EQ(ts.server.totals().requests, batch.size());
}

TEST(NetServer, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  TestServer ts(options);
  auto client = ts.connect();
  // No request: the server closes the connection after the idle window.
  EXPECT_EQ(client.recv_line(), std::nullopt);
}

TEST(NetServer, ConnectionsBeyondMaxAreTurnedAway) {
  ServerOptions options;
  options.max_conns = 1;
  TestServer ts(options);
  auto first = ts.connect();
  first.send("Q 0 0\n");
  ASSERT_TRUE(first.recv_line().has_value());  // slot is genuinely held
  auto second = ts.connect();
  EXPECT_EQ(second.recv_line(), std::optional<std::string>("ERR server busy"));
  EXPECT_EQ(second.recv_line(), std::nullopt);
  // The surviving connection is unaffected.
  first.send("Q 0 0\n");
  EXPECT_TRUE(first.recv_line().has_value());
}

TEST(NetServer, EmptyBatchIsVacuouslyAccepted) {
  TestServer ts;
  auto client = ts.connect();
  client.send("BATCH 0\nQ 0 0\n");  // no reply for the empty batch
  EXPECT_EQ(client.recv_line(), std::optional<std::string>("0 0 0"));
}

}  // namespace
