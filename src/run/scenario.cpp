#include "run/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <stdexcept>

#include "core/params.hpp"
#include "serve/partition.hpp"

namespace nas::run {

std::string format_real(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::string ScenarioSpec::id() const {
  // Assembled via += (GCC 12's -Wrestrict false positive PR105651 flags
  // `"literal" + rvalue-string` chains).
  std::string out = family;
  out += "/n=";
  out += std::to_string(n);
  out += "/seed=";
  out += std::to_string(seed);
  out += "/";
  out += algo;
  if (algo_seed != 0) {
    out += "@";
    out += std::to_string(algo_seed);
  }
  out += "/eps=";
  out += format_real(eps);
  out += "/kappa=";
  out += std::to_string(kappa);
  out += "/rho=";
  out += format_real(rho);
  if (mode != "practical") {
    out += "/";
    out += mode;
  }
  if (workload != "off") {
    out += "/w=";
    out += workload;
    out += "/q=";
    out += std::to_string(queries);
    out += "/cb=";
    out += std::to_string(cache_budget);
    out += "/qt=";
    out += std::to_string(query_threads);
    if (cluster_shards > 1) {
      out += "/cs=";
      out += std::to_string(cluster_shards);
      out += "/";
      out += partition;
    }
    if (snapshot_format != "none") {
      out += "/sf=";
      out += snapshot_format;
    }
  }
  return out;
}

namespace {

/// `axis`, or just its first value when `pin` is set (an axis that cannot
/// change the row).
template <typename T>
std::span<const T> pinned(const std::vector<T>& axis, bool pin) {
  return std::span<const T>(axis).first(
      pin ? std::min<std::size_t>(axis.size(), 1) : axis.size());
}

}  // namespace

void ScenarioSpec::check_algo(const std::string& algo) {
  if (algo != "em" && algo != "en17" && algo != "identity") {
    throw std::invalid_argument("unknown algo \"" + algo +
                                "\" (expected em|en17|identity)");
  }
}

std::vector<ScenarioSpec> ScenarioMatrix::expand() const {
  std::vector<ScenarioSpec> specs;
  for (const auto& family : families)
    for (const auto n : ns)
      for (const auto seed : seeds)
        for (const auto& algo : algos)
          for (const auto algo_seed : algo_seeds)
            for (const auto eps : epss)
              for (const auto kappa : kappas)
                for (const auto rho : rhos)
                  for (const auto& workload : workloads) {
                    const bool off = workload == "off";
                    for (const auto cache_budget : pinned(cache_budgets, off))
                      for (const auto threads : pinned(query_threads, off))
                        for (const auto shards : pinned(cluster_shards, off))
                          for (const auto& partition :
                               pinned(partitions, off || shards == 1))
                            for (const auto& snapshot_format :
                                 pinned(snapshot_formats, off)) {
                              ScenarioSpec s;
                              s.family = family;
                              s.n = n;
                              s.seed = seed;
                              s.algo = algo;
                              s.algo_seed = algo_seed;
                              s.eps = eps;
                              s.kappa = kappa;
                              s.rho = rho;
                              s.mode = mode;
                              s.crosscheck = crosscheck;
                              s.validate = validate;
                              s.verify_mode = verify_mode;
                              s.verify_sources = verify_sources;
                              s.verify_threads = verify_threads;
                              s.verify_seed = verify_seed;
                              s.workload = workload;
                              s.queries = queries;
                              s.workload_seed = workload_seed;
                              s.zipf_theta = zipf_theta;
                              s.cache_budget = cache_budget;
                              s.query_threads = threads;
                              s.cluster_shards = shards;
                              s.partition = partition;
                              s.snapshot_format = snapshot_format;
                              specs.push_back(std::move(s));
                            }
                  }
  return specs;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    auto end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    std::string item = text.substr(begin, end - begin);
    const auto first = item.find_first_not_of(" \t");
    const auto last = item.find_last_not_of(" \t");
    if (first != std::string::npos) {
      items.push_back(item.substr(first, last - first + 1));
    }
    begin = end + 1;
  }
  return items;
}

namespace {

template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& key, const std::string& value,
                          Parse parse) {
  std::vector<T> out;
  for (const auto& item : split_list(value)) out.push_back(parse(key, item));
  if (out.empty()) {
    throw std::invalid_argument("scenario key \"" + key +
                                "\" needs at least one value");
  }
  return out;
}

/// An integer value checked into [0, max of T] by Flags::in_range, so that
/// `n = -5` or `verify-threads = -1` fails instead of wrapping.
template <typename T>
T integer(const std::string& key, const std::string& value) {
  return util::Flags::in_range<T>(key, util::Flags::parse_integer(key, value));
}

/// A comma list of integer(key, item) values.
template <typename T>
std::vector<T> integers(const std::string& key, const std::string& value) {
  return parse_list<T>(key, value, integer<T>);
}

}  // namespace

void ScenarioMatrix::set(const std::string& key, const std::string& value) {
  const auto reals = [&](const std::string& k, const std::string& v) {
    return util::Flags::parse_real(k, v);
  };
  if (key == "family") {
    families = parse_list<std::string>(
        key, value, [](const std::string&, const std::string& v) { return v; });
  } else if (key == "n") {
    ns = integers<graph::Vertex>(key, value);
  } else if (key == "seed") {
    seeds = integers<std::uint64_t>(key, value);
  } else if (key == "algo") {
    algos = parse_list<std::string>(
        key, value, [](const std::string&, const std::string& v) {
          ScenarioSpec::check_algo(v);
          return v;
        });
  } else if (key == "algo-seed") {
    algo_seeds = integers<std::uint64_t>(key, value);
  } else if (key == "eps") {
    epss = parse_list<double>(key, value, reals);
  } else if (key == "kappa") {
    kappas = integers<int>(key, value);
  } else if (key == "rho") {
    rhos = parse_list<double>(key, value, reals);
  } else if (key == "mode") {
    core::Params::check_mode(value);
    mode = value;
  } else if (key == "crosscheck") {
    crosscheck = util::Flags::parse_boolean(value);
  } else if (key == "validate") {
    validate = util::Flags::parse_boolean(value);
  } else if (key == "verify") {
    verify_sources = integer<std::uint32_t>(key, value);
    // Derive the mode, but never downgrade an explicitly requested "exact"
    // (e.g. a scenario file's `verify-mode = exact` refined by --verify N).
    if (verify_sources == 0) {
      verify_mode = "off";
    } else if (verify_mode != "exact") {
      verify_mode = "sampled";
    }
  } else if (key == "verify-mode") {
    if (value != "off" && value != "sampled" && value != "exact") {
      throw std::invalid_argument("verify-mode must be off|sampled|exact, got \"" +
                                  value + "\"");
    }
    verify_mode = value;
  } else if (key == "verify-threads") {
    verify_threads = integer<unsigned>(key, value);
  } else if (key == "verify-seed") {
    verify_seed = integer<std::uint64_t>(key, value);
  } else if (key == "workload") {
    workloads = parse_list<std::string>(
        key, value, [](const std::string&, const std::string& v) {
          if (v != "off" && v != "uniform" && v != "zipf") {
            throw std::invalid_argument(
                "workload must be off|uniform|zipf, got \"" + v + "\"");
          }
          return v;
        });
  } else if (key == "cache-budget") {
    cache_budgets = integers<std::uint64_t>(key, value);
  } else if (key == "query-threads") {
    query_threads = integers<unsigned>(key, value);
  } else if (key == "cluster-shards") {
    cluster_shards = parse_list<unsigned>(
        key, value, [](const std::string& k, const std::string& v) {
          return util::Flags::in_range<unsigned>(
              k, util::Flags::parse_integer(k, v), 1);
        });
  } else if (key == "partition") {
    partitions = parse_list<std::string>(
        key, value, [](const std::string&, const std::string& v) {
          (void)serve::parse_partition(v);  // validates; throws on bad names
          return v;
        });
  } else if (key == "snapshot-format") {
    snapshot_formats = parse_list<std::string>(
        key, value, [](const std::string&, const std::string& v) {
          if (v != "none" && v != "v1" && v != "v2") {
            throw std::invalid_argument(
                "snapshot-format must be none|v1|v2, got \"" + v + "\"");
          }
          return v;
        });
  } else if (key == "queries") {
    queries = integer<std::uint64_t>(key, value);
  } else if (key == "workload-seed") {
    workload_seed = integer<std::uint64_t>(key, value);
  } else if (key == "zipf-theta") {
    zipf_theta = util::Flags::parse_real(key, value);
  } else {
    throw std::invalid_argument("unknown scenario key \"" + key + "\"");
  }
}

void ScenarioMatrix::apply_flags(const util::Flags& flags) {
  // Read every key (registering its --help description); apply only the ones
  // the caller actually passed so the others keep their current values.
  const struct {
    const char* key;
    const char* fallback;
    const char* desc;
  } kKeys[] = {
      {"family", "er", "graph families (comma list; or file:<path>)"},
      {"n", "1024", "target vertex counts (comma list)"},
      {"seed", "1", "graph generator seeds (comma list)"},
      {"algo", "em", "algorithms: em|en17|identity (comma list)"},
      {"algo-seed", "0", "algorithm seeds, 0 = graph seed (comma list)"},
      {"eps", "0.25", "epsilon values (comma list)"},
      {"kappa", "3", "kappa values (comma list)"},
      {"rho", "0.4", "rho values (comma list)"},
      {"mode", "practical", "schedule mode: practical|paper"},
      {"crosscheck", "false", "re-simulate Algorithm 1 on the round engine"},
      {"validate", "false", "check structural lemmas during the build"},
      {"verify", "0", "sampled verification sources, 0 = off (sets verify-mode)"},
      {"verify-mode", "off", "stretch verification: off|sampled|exact"},
      {"verify-threads", "1", "verifier worker shards, 0 = all cores"},
      {"verify-seed", "1", "sampled verification source seed"},
      {"workload", "off", "oracle serving workloads: off|uniform|zipf (comma list)"},
      {"cache-budget", "67108864", "oracle cache budgets in bytes (comma list)"},
      {"query-threads", "1", "serving pool slots, 0 = all cores (comma list)"},
      {"cluster-shards", "1", "serving-cluster shard counts, >= 1 (comma list)"},
      {"partition", "hash", "cluster partitioners: hash|range (comma list)"},
      {"snapshot-format", "none",
       "serving snapshot round-trips: none|v1|v2 (comma list)"},
      {"queries", "1000", "oracle requests per batch"},
      {"workload-seed", "1", "oracle request-generator seed"},
      {"zipf-theta", "0.99", "zipf workload skew exponent"},
  };
  for (const auto& k : kKeys) {
    const std::string raw = flags.str(k.key, k.fallback, k.desc);
    // Under --help only the descriptions matter; skip value parsing so a
    // malformed value next to --help still prints the listing (the same
    // contract util::Flags::integer/real honor).
    if (flags.provided(k.key) && !flags.help_requested()) set(k.key, raw);
  }
}

ScenarioMatrix ScenarioMatrix::from_flags(const util::Flags& flags) {
  ScenarioMatrix m;
  m.apply_flags(flags);
  return m;
}

ScenarioMatrix ScenarioMatrix::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file " + path);
  ScenarioMatrix m;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected `key = value[, value...]`");
    }
    const auto key_end = line.find_last_not_of(" \t", eq - 1);
    if (key_end == std::string::npos || key_end < first) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": missing key before '='");
    }
    const std::string key = line.substr(first, key_end - first + 1);
    std::string value = line.substr(eq + 1);
    const auto vfirst = value.find_first_not_of(" \t\r");
    const auto vlast = value.find_last_not_of(" \t\r");
    value = vfirst == std::string::npos
                ? ""
                : value.substr(vfirst, vlast - vfirst + 1);
    try {
      m.set(key, value);
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " +
                               e.what());
    }
  }
  return m;
}

}  // namespace nas::run
