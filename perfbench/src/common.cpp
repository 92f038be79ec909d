#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace bench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng mix(seed * 0x100000001b3ull + tag);
  return mix.next();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got " + key);
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Args::str(const std::string& key) {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("missing --" + key);
  used_[key] = true;
  return it->second;
}

std::string Args::str(const std::string& key, const std::string& fallback) {
  return values_.count(key) != 0 ? str(key) : fallback;
}

std::int64_t Args::integer(const std::string& key) {
  const std::string text = str(key);
  std::size_t used = 0;
  const std::int64_t v = std::stoll(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument("--" + key + " is not an integer: " + text);
  }
  return v;
}

double Args::real(const std::string& key) { return std::stod(str(key)); }

void Args::reject_unknown() const {
  for (const auto& [key, value] : values_) {
    if (used_.count(key) == 0) {
      throw std::invalid_argument("unknown argument --" + key);
    }
  }
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 10) std::cerr << "FAILED: " << what << "\n";
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    checks_ok_ = false;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    std::snprintf(value, sizeof value, "%.17g", m.value);
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double proc_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

std::uint64_t file_bytes(const std::string& path) {
  return std::filesystem::file_size(path);
}

}  // namespace bench
