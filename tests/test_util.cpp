// Unit tests for src/util: deterministic RNG, tables, CSV, flags, pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/mapped_file.hpp"
#include "util/temp_file.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace nas::util;

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 a(0);
  SplitMix64 b(0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(42), mix64(42));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Xoshiro256, Reproducible) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, BelowStaysInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Xoshiro256, BelowCoversRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro256, BernoulliMatchesProbability) {
  Xoshiro256 rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"wide-cell", "x", ""});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("wide-cell"), std::string::npos);
  // All rendered lines have equal width.
  std::istringstream iss(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(iss, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b"});
  t.add_row({"only-one"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(std::int64_t{-7}), "-7");
  EXPECT_EQ(Table::sci(12345.0, 1), "1.2e+04");
}

TEST(Csv, DisabledWriterIsNoop) {
  CsvWriter w("", {"a", "b"});
  EXPECT_FALSE(w.enabled());
  EXPECT_NO_THROW(w.row({"1", "2"}));
}

TEST(Csv, WritesHeaderAndEscapes) {
  const std::string path = "/tmp/nas_test_csv.csv";
  {
    CsvWriter w(path, {"x", "y"});
    w.row({"plain", "with,comma"});
    w.row({"with\"quote", "ok"});
  }
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "x,y");
  EXPECT_EQ(l2, "plain,\"with,comma\"");
  EXPECT_EQ(l3, "\"with\"\"quote\",ok");
  std::remove(path.c_str());
}

TEST(Flags, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--n", "42", "--eps=0.5", "--verbose"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_EQ(f.integer("n", 0), 42);
  EXPECT_DOUBLE_EQ(f.real("eps", 0.0), 0.5);
  EXPECT_TRUE(f.boolean("verbose", false));
  EXPECT_EQ(f.str("missing", "dflt"), "dflt");
  EXPECT_NO_THROW(f.reject_unknown());
}

TEST(Flags, RejectUnknownThrowsOnTypos) {
  const char* argv[] = {"prog", "--kapa=3"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EQ(f.integer("kappa", 7), 7);
  EXPECT_THROW(f.reject_unknown(), std::invalid_argument);
}

TEST(Flags, PositionalArgumentRejected) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(Flags(2, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(Flags, BadNumericValueNamesFlagAndValue) {
  const char* argv[] = {"prog", "--n", "abc", "--eps", "0.5zzz"};
  Flags f(5, const_cast<char**>(argv));
  try {
    (void)f.integer("n", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--n"), std::string::npos) << what;
    EXPECT_NE(what.find("abc"), std::string::npos) << what;
  }
  try {
    (void)f.real("eps", 0.0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--eps"), std::string::npos) << what;
    EXPECT_NE(what.find("0.5zzz"), std::string::npos) << what;
  }
  // Trailing garbage is rejected, not silently truncated.
  EXPECT_THROW((void)Flags::parse_integer("n", "12abc"),
               std::invalid_argument);
  EXPECT_THROW((void)Flags::parse_integer("n", ""), std::invalid_argument);
  EXPECT_EQ(Flags::parse_integer("n", "-7"), -7);
  EXPECT_DOUBLE_EQ(Flags::parse_real("eps", "2.5e-1"), 0.25);
}

TEST(Flags, InRangeAcceptsBothBounds) {
  const auto int64_max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(Flags::in_range<std::uint16_t>("port", 0), 0u);
  EXPECT_EQ(Flags::in_range<std::uint16_t>("port", 65535), 65535u);
  EXPECT_EQ(Flags::in_range<unsigned>("shards", 1, 1), 1u);
  EXPECT_EQ(Flags::in_range<unsigned>("shards", 4294967295, 1), 4294967295u);
  EXPECT_EQ(Flags::in_range<std::uint64_t>("cache-budget", int64_max),
            static_cast<std::uint64_t>(int64_max));
  EXPECT_EQ(Flags::in_range<int>("level", -3, -3, 7), -3);
  EXPECT_EQ(Flags::in_range<int>("level", 7, -3, 7), 7);
  EXPECT_EQ(Flags::in_range<std::uint32_t>("n", 4294967295), 4294967295u);
  EXPECT_EQ(Flags::in_range<int>("kappa", 2147483647), 2147483647);
}

TEST(Flags, InRangeRejectsValuesOutsideTheRange) {
  // Above the narrow type's range: these used to wrap silently (70000 ->
  // port 4464, 2^32 + 1 -> 1 shard).
  EXPECT_THROW((void)Flags::in_range<std::uint16_t>("port", 70000),
               std::invalid_argument);
  EXPECT_THROW((void)Flags::in_range<unsigned>("shards", 4294967297, 1),
               std::invalid_argument);
  EXPECT_THROW((void)Flags::in_range<int>("level", 8, -3, 7),
               std::invalid_argument);
  // --n 4294967360 used to build n = 64, --kappa 4294967299 ran kappa = 3.
  EXPECT_THROW((void)Flags::in_range<std::uint32_t>("n", 4294967360),
               std::invalid_argument);
  EXPECT_THROW((void)Flags::in_range<int>("kappa", 4294967299),
               std::invalid_argument);
  // Below the range: a negative count, and explicit lower bounds.
  EXPECT_THROW((void)Flags::in_range<std::uint64_t>("queries", -1),
               std::invalid_argument);
  EXPECT_THROW((void)Flags::in_range<unsigned>("shards", 0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)Flags::in_range<int>("level", -4, -3, 7),
               std::invalid_argument);
  // --n -5 used to become n = 4294967291; --threads -1, 4294967295 workers.
  EXPECT_THROW((void)Flags::in_range<std::uint32_t>("n", -5),
               std::invalid_argument);
  EXPECT_THROW((void)Flags::in_range<unsigned>("threads", -1),
               std::invalid_argument);
  // The error names the flag, its range, and the rejected value.
  try {
    (void)Flags::in_range<std::uint16_t>("port", 70000);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --port must be in [0, 65535], got 70000");
  }
  try {
    (void)Flags::in_range<unsigned>("shards", 0, 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --shards must be in [1, 4294967295], got 0");
  }
}

TEST(Flags, HelpListsRegisteredFlagsWithDefaults) {
  const char* argv[] = {"prog", "--help"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_TRUE(f.help_requested());
  const auto n = f.integer("n", 42, "vertex count");
  EXPECT_EQ(n, 42);
  (void)f.str("family", "er", "workload family");
  std::ostringstream out;
  EXPECT_TRUE(f.handle_help("my_bench — what it does", out));
  const std::string help = out.str();
  EXPECT_NE(help.find("my_bench"), std::string::npos);
  EXPECT_NE(help.find("--n [42]"), std::string::npos) << help;
  EXPECT_NE(help.find("vertex count"), std::string::npos);
  EXPECT_NE(help.find("--family [er]"), std::string::npos) << help;
  EXPECT_NE(help.find("--help"), std::string::npos);
  // --help itself never trips reject_unknown.
  EXPECT_NO_THROW(f.reject_unknown());
}

TEST(Flags, HelpSuppressesValueParsing) {
  // `--help` alongside a malformed value must still print help, not throw.
  const char* argv[] = {"prog", "--n", "abc", "--help"};
  Flags f(4, const_cast<char**>(argv));
  EXPECT_EQ(f.integer("n", 5), 5);
  std::ostringstream out;
  EXPECT_TRUE(f.handle_help("", out));
}

TEST(Flags, HandleHelpIsNoopWithoutHelpFlag) {
  const char* argv[] = {"prog", "--n", "3"};
  Flags f(3, const_cast<char**>(argv));
  EXPECT_FALSE(f.help_requested());
  EXPECT_TRUE(f.provided("n"));
  EXPECT_FALSE(f.provided("family"));
  std::ostringstream out;
  EXPECT_FALSE(f.handle_help("anything", out));
  EXPECT_TRUE(out.str().empty());
}

TEST(ThreadPool, RunsEverySlotExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run(4, [&](unsigned slot) { ++hits[slot]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossRunsAndPartialCounts) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    const unsigned count = 1 + static_cast<unsigned>(round % 4);
    pool.run(count, [&](unsigned) { ++total; });
  }
  // Rounds of 1+2+3+4 slots, repeated 50/4 times plus remainder 1+2.
  EXPECT_EQ(total.load(), 50 / 4 * 10 + 1 + 2);
}

TEST(ThreadPool, ShardsCoverRangeInOrder) {
  for (unsigned shards : {1u, 3u, 8u}) {
    std::size_t expect_begin = 0;
    for (unsigned i = 0; i < shards; ++i) {
      const auto [begin, end] = ThreadPool::shard(10, shards, i);
      EXPECT_EQ(begin, expect_begin);
      EXPECT_LE(begin, end);
      expect_begin = end;
    }
    EXPECT_EQ(expect_begin, 10u);
  }
  const auto [b, e] = ThreadPool::shard(2, 8, 5);  // more shards than items
  EXPECT_LE(b, e);
}

TEST(ThreadPool, SlotExceptionIsRethrownOnCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run(3,
                        [](unsigned slot) {
                          if (slot == 2) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool survives a throwing run.
  std::atomic<int> total{0};
  pool.run(3, [&](unsigned) { ++total; });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, CountBeyondPoolSizeThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run(3, [](unsigned) {}), std::invalid_argument);
}

TEST(ThreadPool, ZeroResolvesToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> total{0};
  pool.run(pool.size(), [&](unsigned) { ++total; });
  EXPECT_EQ(total.load(), static_cast<int>(pool.size()));
}

// --- MappedFile error reporting ---------------------------------------------
//
// Regression coverage for the errno-clobbering bug: the stat/mmap failure
// paths ran ::close(fd) before building the error message, and a close that
// touches errno (POSIX permits this even on success) would replace the real
// cause with nonsense like "Success".  The message must name the failing
// operation and the errno captured *at that call*.

TEST(MappedFile, OpenFailureNamesPathAndRealCause) {
  const std::string missing = "/nonexistent/nas-mapped-file-test";
  try {
    auto file = MappedFile::map(missing);
    FAIL() << "mapping a missing path should throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cannot open"), std::string::npos) << msg;
    EXPECT_NE(msg.find(missing), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::strerror(ENOENT)), std::string::npos) << msg;
  }
}

// --- temp-file exclusive creation -------------------------------------------

TEST(TempFile, CreatesDistinctExistingFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "nas_tf_distinct";
  std::filesystem::create_directories(dir);
  const std::string a = create_temp_file_in(dir.string(), "snap_", ".naso");
  const std::string b = create_temp_file_in(dir.string(), "snap_", ".naso");
  EXPECT_NE(a, b);
  EXPECT_TRUE(std::filesystem::exists(a));
  EXPECT_TRUE(std::filesystem::exists(b));
  std::filesystem::remove_all(dir);
}

TEST(TempFile, SkipsAnOccupiedCandidate) {
  // Occupy the exact path the next call would mint (the <prefix><pid>_<k>
  // naming is part of the contract) — the pre-created file simulates a
  // recycled pid or a stale crash leftover.  The call must come back with a
  // different path and must NOT have touched the squatter's contents.
  const auto dir = std::filesystem::temp_directory_path() / "nas_tf_occupied";
  std::filesystem::create_directories(dir);
  const std::string first = create_temp_file_in(dir.string(), "coll_", ".tmp");
  // Parse "<...>coll_<pid>_<k>.tmp" and squat on k+1.
  const std::size_t us = first.rfind('_');
  const std::size_t dot = first.rfind('.');
  ASSERT_NE(us, std::string::npos);
  ASSERT_NE(dot, std::string::npos);
  const auto k = std::stoull(first.substr(us + 1, dot - us - 1));
  const std::string squatted = first.substr(0, us + 1) +
                               std::to_string(k + 1) + ".tmp";
  {
    std::ofstream out(squatted);
    out << "precious bytes";
  }
  const std::string second = create_temp_file_in(dir.string(), "coll_", ".tmp");
  EXPECT_NE(second, squatted);
  EXPECT_TRUE(std::filesystem::exists(second));
  std::ifstream in(squatted);
  std::string contents;
  std::getline(in, contents);
  EXPECT_EQ(contents, "precious bytes");
  std::filesystem::remove_all(dir);
}

TEST(TempFile, ConcurrentCreatorsNeverCollide) {
  const auto dir = std::filesystem::temp_directory_path() / "nas_tf_threads";
  std::filesystem::create_directories(dir);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::vector<std::string>> made(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        made[t].push_back(create_temp_file_in(dir.string(), "race_", ".tmp"));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::string> distinct;
  for (const auto& per_thread : made) {
    for (const auto& path : per_thread) {
      EXPECT_TRUE(std::filesystem::exists(path));
      distinct.insert(path);
    }
  }
  EXPECT_EQ(distinct.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  std::filesystem::remove_all(dir);
}

#if defined(__linux__)
TEST(MappedFile, MmapFailureSurvivesDescriptorCleanup) {
  // A directory passes open+fstat but fails at mmap (ENODEV), which is
  // exactly the path that closes the descriptor before throwing.
  try {
    auto file = MappedFile::map("/");
    GTEST_SKIP() << "directory mmap unexpectedly succeeded on this kernel";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cannot mmap"), std::string::npos) << msg;
    // The clobbered-errno symptom: strerror(0) leaking into the message.
    EXPECT_EQ(msg.find(std::strerror(0)), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::strerror(ENODEV)), std::string::npos) << msg;
  }
}
#endif

}  // namespace
