#include "run/sinks.hpp"

#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace nas::run {

using util::JsonValue;

util::JsonObject row_fields(const ResultRow& row, const SinkOptions& options) {
  const auto& spec = row.spec;
  util::JsonObject fields{
      {"scenario", JsonValue::str(spec.id())},
      {"family", JsonValue::str(spec.family)},
      {"n", JsonValue::number(static_cast<std::uint64_t>(row.n))},
      {"m", JsonValue::number(row.m)},
      {"seed", JsonValue::number(spec.seed)},
      {"algo", JsonValue::str(spec.algo)},
      {"algo_seed", JsonValue::number(spec.algo_seed)},
      {"eps", JsonValue::literal(format_real(spec.eps))},
      {"kappa", JsonValue::number(static_cast<std::int64_t>(spec.kappa))},
      {"rho", JsonValue::literal(format_real(spec.rho))},
      {"mode", JsonValue::str(spec.mode)},
      {"spanner_edges", JsonValue::number(row.spanner_edges)},
      {"rounds", JsonValue::number(row.rounds)},
      {"guarantee_mult", JsonValue::literal(format_real(row.guarantee_mult))},
      {"guarantee_add", JsonValue::literal(format_real(row.guarantee_add))},
      {"verify_mode", JsonValue::str(spec.verify_mode)},
      {"pairs_checked",
       JsonValue::number(row.verified ? row.report.pairs_checked : 0)},
      {"max_mult", JsonValue::literal(
                       format_real(row.verified ? row.report.max_multiplicative
                                                : 0.0, 10))},
      {"max_add",
       JsonValue::number(row.verified ? row.report.max_additive : 0)},
      {"bound_ok", JsonValue::boolean(!row.verified || row.report.bound_ok)},
      {"workload", JsonValue::str(spec.workload)},
      {"queries", JsonValue::number(row.cluster.requests)},
      {"cache_budget", JsonValue::number(spec.cache_budget)},
      {"query_threads",
       JsonValue::number(static_cast<std::uint64_t>(spec.query_threads))},
      {"oracle_sources", JsonValue::number(row.cluster.distinct_sources)},
      {"oracle_cache_hits", JsonValue::number(row.cluster.cache_hits)},
      {"oracle_bfs", JsonValue::number(row.cluster.bfs_passes)},
      {"oracle_evictions", JsonValue::number(row.cluster.evictions)},
      {"oracle_digest", JsonValue::hex64(row.oracle_digest)},
      {"cluster_shards",
       JsonValue::number(static_cast<std::uint64_t>(spec.cluster_shards))},
      {"cluster_partition", JsonValue::str(spec.partition)},
      {"cluster_shards_used", JsonValue::number(row.cluster.shards_used)},
      {"cluster_counter_digest",
       JsonValue::hex64(row.served ? row.cluster.digest() : 0)},
      {"snapshot_format", JsonValue::str(spec.snapshot_format)},
      {"snapshot_bytes", JsonValue::number(row.snapshot_bytes)},
      {"ok", JsonValue::boolean(row.ok)},
      {"error", JsonValue::str(row.error)},
  };
  if (options.timing) {
    fields.emplace_back("build_ms",
                        JsonValue::literal(format_real(row.build_wall_ms, 4)));
    fields.emplace_back("verify_ms",
                        JsonValue::literal(format_real(row.verify_wall_ms, 4)));
    fields.emplace_back("oracle_ms",
                        JsonValue::literal(format_real(row.oracle_wall_ms, 4)));
    fields.emplace_back(
        "warmup_ms", JsonValue::literal(format_real(row.snapshot_warmup_ms, 4)));
  }
  if (options.extra) {
    for (auto& field : options.extra(row)) fields.push_back(std::move(field));
  }
  return fields;
}

std::string render_json(const std::vector<ResultRow>& rows,
                        const SinkOptions& options) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += "  ";
    out += util::render_json_object(row_fields(rows[i], options));
    if (i + 1 < rows.size()) out += ",";
    out += "\n";
  }
  out += "]\n";
  return out;
}

std::string render_csv(const std::vector<ResultRow>& rows,
                       const SinkOptions& options) {
  std::string out;
  const auto header = row_fields(rows.empty() ? ResultRow{} : rows.front(),
                                 options);
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (c) out += ',';
    out += util::CsvWriter::escape(header[c].first);
  }
  out += '\n';
  for (const auto& row : rows) {
    const auto fields = row_fields(row, options);
    for (std::size_t c = 0; c < fields.size(); ++c) {
      if (c) out += ',';
      out += util::CsvWriter::escape(fields[c].second.text);
    }
    out += '\n';
  }
  return out;
}

namespace {

void write_file(const std::string& text, const std::string& path,
                const char* what) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error(std::string(what) + " sink: cannot open " + path);
  }
  out << text;
}

}  // namespace

void write_json(const std::vector<ResultRow>& rows, const std::string& path,
                const SinkOptions& options) {
  write_file(render_json(rows, options), path, "json");
}

void write_csv(const std::vector<ResultRow>& rows, const std::string& path,
               const SinkOptions& options) {
  write_file(render_csv(rows, options), path, "csv");
}

}  // namespace nas::run
