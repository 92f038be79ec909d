// The nas_served line protocol: parsing and framing, isolated from IO.
//
// One request per '\n'-terminated line (a trailing '\r' is stripped, so
// `nc`, `telnet`, and CRLF clients all work).  Grammar:
//
//   Q <u> <v>     one distance request; the reply is one "<u> <v> <d>" line
//                 (d = spanner distance, or "inf" for disconnected pairs) —
//                 byte-identical to the nas_serve answer format.
//   BATCH <n>     exactly n "<u> <v>" body lines follow; the reply is n
//                 answer lines in request order.  n may be 0 (no reply).
//   STATS         one JSON object line: cluster configuration + cumulative
//                 serving counters (the nas_serve --stats-json schema plus
//                 the server's connection counters).
//   METRICS       one JSON object line: the cluster's work metrics — the
//                 serve-call count, the batch-size histogram, and
//                 metrics_digest — plus the timing-only serve-latency
//                 histogram (the serve::cluster_metrics_fields schema).
//   QUIT          the server replies "BYE" and closes after flushing.
//
// Anything else is answered with one "ERR <reason>" line.  Errors that
// leave the stream position unambiguous (unknown command, bad vertex id,
// malformed batch body line) keep the connection open; errors that break
// framing (an overlong line, an unparseable BATCH header whose body length
// is therefore unknown) close it after the ERR is flushed.
//
// Parsing is strict: vertex ids are decimal, overflow-checked, and
// validated against the cluster's vertex universe before a request is ever
// submitted, so the serving path never throws on user input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "apps/distance_oracle.hpp"
#include "graph/graph.hpp"

namespace nas::net {

/// One parsed request line.
struct Request {
  enum class Kind { kQuery, kBatch, kStats, kMetrics, kQuit };
  Kind kind = Kind::kStats;
  apps::Query query;            ///< kQuery only
  std::uint64_t batch_size = 0; ///< kBatch only
};

/// Outcome of parsing one line.  `ok` distinguishes success; on failure
/// `error` is the human-readable reason (without the "ERR " prefix) and
/// `fatal` says whether framing is lost (close after flushing the error).
struct ParseOutcome {
  bool ok = false;
  Request request;
  std::string error;
  bool fatal = false;
};

/// Parses one command line (terminator already stripped).  `universe` is the
/// cluster's vertex count; ids >= universe are rejected here.  `max_batch`
/// bounds the BATCH header.  Blank lines are reported as errors — callers
/// skip them before parsing.
[[nodiscard]] ParseOutcome parse_request_line(std::string_view line,
                                              graph::Vertex universe,
                                              std::uint64_t max_batch);

/// Parses one "u v" batch body line against the same vertex rules.
[[nodiscard]] ParseOutcome parse_batch_line(std::string_view line,
                                            graph::Vertex universe);

/// True when `line` is empty or all spaces/tabs (skipped, never an error).
[[nodiscard]] bool is_blank_line(std::string_view line);

/// Incremental '\n'-framed line extraction over an append-only buffer.
enum class LineStatus {
  kLine,      ///< one complete line extracted
  kNeedMore,  ///< no terminator buffered yet (and under the length cap)
  kOverlong,  ///< cap exceeded without a terminator — framing is lost
};

/// Extracts the next line from `buffer` starting at `*pos`, advancing
/// `*pos` past the terminator.  Strips "\n" and "\r\n".  Returns kOverlong
/// once more than `max_line_bytes` bytes are buffered without a terminator.
/// Callers periodically compact `buffer`/`*pos`; this function only reads.
[[nodiscard]] LineStatus next_line(const std::string& buffer,
                                   std::size_t* pos,
                                   std::size_t max_line_bytes,
                                   std::string* line);

}  // namespace nas::net
