// Shared helpers of the benchmark driver: clock, seeded RNG, order
// statistics, command-line parsing and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace bench {

/// Monotonic wall-clock seconds (steady_clock).
[[nodiscard]] double now_s();

/// SplitMix64: the benchmark's own input generator, independent of the
/// library's RNGs so that a change to those never changes the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  /// Uniform in [0, bound); the modulo bias is below 2^-40 for bound < 2^24.
  std::uint32_t below(std::uint32_t bound) {
    return static_cast<std::uint32_t>(next() % bound);
  }

 private:
  std::uint64_t state_;
};

/// Seed of one input stream: the workload seed mixed with a stream tag.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag);

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// `--key value` pairs; every key must be consumed.
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] std::string str(const std::string& key);
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback);
  [[nodiscard]] std::int64_t integer(const std::string& key);
  [[nodiscard]] double real(const std::string& key);
  void reject_unknown() const;

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> used_;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void attempt(bool ok, const std::string& what);
  void check(bool ok, const std::string& what);  ///< a check, not an op
  [[nodiscard]] bool correct() const { return failed_ == 0 && checks_ok_; }
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
};

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double self_peak_rss_mb();
/// VmHWM of another process, read from its /proc status, in MiB.
[[nodiscard]] double proc_peak_rss_mb(int pid);

[[nodiscard]] std::uint64_t file_bytes(const std::string& path);

}  // namespace bench
