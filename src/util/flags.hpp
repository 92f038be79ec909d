// Tiny command-line flag parser for the bench/example binaries.
//
// Supports `--name value` and `--name=value`.  Unknown flags raise, so typos
// in experiment scripts fail loudly instead of silently running the default
// configuration.  Every accessor optionally registers a one-line description;
// `handle_help()` prints the registered flags (with their defaults) when the
// user passed `--help`, before any real work runs:
//
//   util::Flags flags(argc, argv);
//   const auto n = flags.integer("n", 1024, "vertex count");
//   ...
//   if (flags.handle_help("my_bench — what it measures")) return 0;
//   flags.reject_unknown();
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace nas::util {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected positional argument: " + arg);
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";  // bare boolean flag
      }
    }
    help_ = values_.count("help") > 0;
  }

  [[nodiscard]] std::string str(const std::string& name,
                                const std::string& fallback,
                                const std::string& desc = "") const {
    describe(name, fallback.empty() ? "\"\"" : fallback, desc);
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::int64_t integer(const std::string& name,
                                     std::int64_t fallback,
                                     const std::string& desc = "") const {
    describe(name, std::to_string(fallback), desc);
    const auto it = values_.find(name);
    if (it == values_.end() || help_) return fallback;
    return parse_integer(name, it->second);
  }

  [[nodiscard]] double real(const std::string& name, double fallback,
                            const std::string& desc = "") const {
    describe(name, std::to_string(fallback), desc);
    const auto it = values_.find(name);
    if (it == values_.end() || help_) return fallback;
    return parse_real(name, it->second);
  }

  [[nodiscard]] bool boolean(const std::string& name, bool fallback,
                             const std::string& desc = "") const {
    describe(name, fallback ? "true" : "false", desc);
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return parse_boolean(it->second);
  }

  /// The one truthy-token list, shared with scenario-file values.
  [[nodiscard]] static bool parse_boolean(const std::string& text) {
    return text == "true" || text == "1" || text == "yes";
  }

  /// Strict parse helpers shared with list-valued flags: the whole string
  /// must be consumed, and failures name the flag and the offending value
  /// instead of surfacing a bare std::invalid_argument("stoll").
  [[nodiscard]] static std::int64_t parse_integer(const std::string& name,
                                                  const std::string& text) {
    std::size_t pos = 0;
    std::int64_t v = 0;
    try {
      v = std::stoll(text, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != text.size() || text.empty()) {
      throw std::invalid_argument("flag --" + name +
                                  " expects an integer, got \"" + text + "\"");
    }
    return v;
  }

  [[nodiscard]] static double parse_real(const std::string& name,
                                         const std::string& text) {
    std::size_t pos = 0;
    double v = 0;
    try {
      v = std::stod(text, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != text.size() || text.empty()) {
      throw std::invalid_argument("flag --" + name +
                                  " expects a number, got \"" + text + "\"");
    }
    return v;
  }

  /// Checks that an integer flag value lies in [lo, hi] and narrows it to
  /// T; `hi` defaults to the largest value T (and int64) can hold.  The
  /// error names the flag and the range, so `--port 70000` fails instead
  /// of wrapping to another port.  Pass integer()'s result straight in so
  /// the flag keeps its --help line:
  ///   const auto port = Flags::in_range<std::uint16_t>(
  ///       "port", flags.integer("port", 0, "TCP port"));
  template <typename T>
  [[nodiscard]] static T in_range(const std::string& name, std::int64_t value,
                                  std::int64_t lo = 0,
                                  std::int64_t hi = max_value<T>()) {
    if (value < lo || value > hi) {
      throw std::invalid_argument("flag --" + name + " must be in [" +
                                  std::to_string(lo) + ", " +
                                  std::to_string(hi) + "], got " +
                                  std::to_string(value));
    }
    return static_cast<T>(value);
  }

  /// True iff the user passed --name (with or without a value).
  [[nodiscard]] bool provided(const std::string& name) const {
    return values_.count(name) > 0;
  }

  [[nodiscard]] bool help_requested() const { return help_; }

  /// The registered flags (in first-read order) as an aligned usage listing.
  [[nodiscard]] std::string help_text(const std::string& about) const {
    std::string out = about.empty() ? "" : about + "\n";
    out += "flags:\n";
    std::size_t width = std::string("--help").size();
    for (const auto& d : descriptions_) {
      width = std::max(width, d.name.size() + d.fallback.size() + 5);
    }
    for (const auto& d : descriptions_) {
      std::string head = "--" + d.name + " [" + d.fallback + "]";
      head.resize(std::max(width, head.size()), ' ');
      out += "  " + head + "  " + d.desc + "\n";
    }
    std::string head = "--help";
    head.resize(width, ' ');
    out += "  " + head + "  print this listing and exit\n";
    return out;
  }

  /// Call after all flags were read: prints the usage listing and returns
  /// true iff the user passed --help (the binary should then exit 0).
  [[nodiscard]] bool handle_help(const std::string& about,
                                 std::ostream& out = std::cout) const {
    if (!help_) return false;
    out << help_text(about);
    return true;
  }

  /// Call after all flags were read; throws on flags the binary never asked
  /// about (catches typos like --kapa).
  void reject_unknown() const {
    for (const auto& [name, value] : values_) {
      if (name != "help" && !known_.count(name)) {
        throw std::invalid_argument("unknown flag --" + name + "=" + value);
      }
    }
  }

 private:
  /// The largest int64 value that T can hold.
  template <typename T>
  [[nodiscard]] static constexpr std::int64_t max_value() {
    constexpr auto t_max =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    constexpr auto i_max =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    return static_cast<std::int64_t>(std::min(t_max, i_max));
  }

  struct Description {
    std::string name, fallback, desc;
  };

  void describe(const std::string& name, const std::string& fallback,
                const std::string& desc) const {
    if (known_.insert(name).second) {
      descriptions_.push_back({name, fallback, desc});
    }
  }

  std::map<std::string, std::string> values_;
  bool help_ = false;
  mutable std::set<std::string> known_;
  mutable std::vector<Description> descriptions_;
};

}  // namespace nas::util
