// Tests for the edge-list and query-file readers (graph::PairScanner under
// graph::read_edge_list and apps::read_queries): a parser corpus around the
// scanner's block boundary, the strict rejections with their line numbers
// (also through the v1 snapshot body), write -> read round-trips of every
// generator family, and a seeded mutation fuzzer over both readers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "apps/query_workload.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"

namespace {

using namespace nas;
using graph::Graph;
using graph::kScanBlockBytes;

constexpr std::size_t kBlock = kScanBlockBytes;

Graph read(const std::string& text) {
  std::istringstream in(text);
  return graph::read_edge_list(in);
}

struct Outcome {
  std::optional<std::string> error;
  std::size_t line = 0;  // the line the error names
};

/// The "line N" an error names; fails the test if there is none.
std::size_t named_line(const std::string& what) {
  const auto at = what.rfind("line ");
  if (at == std::string::npos || at + 5 >= what.size() ||
      what[at + 5] < '0' || what[at + 5] > '9') {
    ADD_FAILURE() << "rejection names no line: " << what;
    return 0;
  }
  return std::stoull(what.substr(at + 5));
}

/// Runs a reader; fails the test if it throws anything but a
/// std::runtime_error naming a line.
template <typename Read>
Outcome run_reader(const Read& fn) {
  Outcome out;
  try {
    fn();
  } catch (const std::runtime_error& e) {
    out.error = e.what();
    out.line = named_line(*out.error);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a std::runtime_error: " << e.what();
    out.error = e.what();
  }
  return out;
}

/// The what() of the error `fn` throws; fails the test if it throws none.
template <typename Read>
std::string error_of(const Read& fn) {
  const Outcome out = run_reader(fn);
  if (!out.error) ADD_FAILURE() << "expected a std::runtime_error";
  return out.error.value_or("");
}

std::string read_error(const std::string& text) {
  return error_of([&] { (void)read(text); });
}

std::string load_error(const std::string& body) {
  return error_of([&] {
    std::istringstream in("NAS-ORACLE v1\nparams none\nguarantee 1 0\n" +
                          body);
    (void)apps::SpannerDistanceOracle::load(in);
  });
}

/// A '#' comment line of exactly `bytes` bytes, newline included.
std::string pad_line(std::size_t bytes) {
  return "#" + std::string(bytes - 2, 'p') + "\n";
}

void expect_same_graph(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.edges(), b.edges());
}

// --- the corpus --------------------------------------------------------------

TEST(EdgeListReader, LinesStraddlingTheBlockBoundary) {
  const std::string edges = "0 1\n1 2\n2 3\n";
  for (std::size_t shift = 0; shift <= 12; ++shift) {
    // The header and a pad put the edge lines' bytes across offset kBlock.
    const std::string head = "4 3\n";
    const std::string text =
        head + pad_line(kBlock - head.size() - shift) + edges;
    const Graph g = read(text);
    EXPECT_EQ(g.num_edges(), 3u) << shift;
    EXPECT_TRUE(g.has_edge(2, 3)) << shift;
    // A bad token straddling the boundary keeps its text and line.
    const std::string bad =
        head + pad_line(kBlock - head.size() - shift) + "0 1\n1 2 junk\n";
    EXPECT_NE(read_error(bad).find("trailing token 'junk' in edge line at "
                                   "line 4"),
              std::string::npos)
        << shift;
  }
}

TEST(EdgeListReader, CommentLongerThanABlock) {
  const std::string comment = "#" + std::string(2 * kBlock + 17, 'c');
  const Graph g = read(comment + "\n3 2 " + comment + "\n0 1" + comment +
                       "\n" + comment + "\n1 2\n");
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(1, 2));
  // Line numbers keep counting across the carried lines.
  EXPECT_NE(read_error(comment + "\n3 2\n" + comment + "\n0 1\n7 1\n")
                .find("line 5"),
            std::string::npos);
  // A data line longer than a block: whitespace runs are carried whole.
  const std::string wide = "3" + std::string(kBlock + 5, ' ') + "1\n0 2\n";
  EXPECT_TRUE(read(wide).has_edge(0, 2));
}

TEST(EdgeListReader, LineEndingsAndSeparators) {
  // No final newline.
  EXPECT_TRUE(read("3 1\n0 2").has_edge(0, 2));
  // CRLF, also with the '\r' and '\n' in different blocks.
  EXPECT_TRUE(read("3 2\r\n0 1\r\n1 2\r\n").has_edge(1, 2));
  const std::string crlf_head = "3 1\r\n";
  for (std::size_t shift = 0; shift <= 6; ++shift) {
    const std::string text =
        crlf_head + pad_line(kBlock - crlf_head.size() - shift) + "0 2\r\n";
    EXPECT_TRUE(read(text).has_edge(0, 2)) << shift;
  }
  // Tab, vertical-tab and form-feed separators.
  const Graph g = read("4\t2\n0\v1\f\n\t2 \t3\t\n");
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  // '#' glued to a number ends it.
  EXPECT_TRUE(read("3 1#header\n0 2#edge\n").has_edge(0, 2));
}

TEST(EdgeListReader, ErrorTextsKeepTheirLineNumbers) {
  EXPECT_NE(read_error("4 2x\n0 1\n1 2\n")
                .find("read_edge_list: trailing token 'x' in header at line 1"),
            std::string::npos);
  EXPECT_NE(read_error("# c\n4x 2\n").find("malformed header (expected 'n m') "
                                           "at line 2"),
            std::string::npos);
  EXPECT_NE(read_error("4 1\n0 1x\n").find("trailing token 'x' in edge line "
                                           "at line 2"),
            std::string::npos);
  EXPECT_NE(read_error("4 2\n0 1\n").find("header declares m=2 edges but the "
                                          "file contains 1 (after line 2)"),
            std::string::npos);
  EXPECT_NE(read_error("# only\n\n").find("missing header (after line 2)"),
            std::string::npos);
  // Control bytes in a token are escaped, so what() still ends in its line.
  EXPECT_NE(read_error(std::string("4 1\n0 1 a\0b\n", 12))
                .find("trailing token 'a\\x00b' in edge line at line 2"),
            std::string::npos);
}

TEST(EdgeListReader, OverflowIsMalformed) {
  EXPECT_NE(read_error("4294967296 1\n0 1\n").find("malformed header"),
            std::string::npos);
  EXPECT_NE(read_error("3 18446744073709551616\n").find("malformed header"),
            std::string::npos);
  EXPECT_NE(read_error("3 1\n0 4294967296\n")
                .find("malformed edge line (expected 'u v') at line 2"),
            std::string::npos);
  // The largest 32-bit value parses, and is out of range for any n.
  EXPECT_NE(read_error("3 1\n4294967295 0\n")
                .find("endpoint 4294967295 out of range for n=3 at line 2"),
            std::string::npos);
}

TEST(EdgeListReader, BadEdgesRejectedWithTheirLine) {
  EXPECT_NE(read_error("3 2\n0 1\n0 5\n")
                .find("endpoint 5 out of range for n=3 at line 3"),
            std::string::npos);
  EXPECT_NE(read_error("3 1\n1 1\n").find("self-loop on vertex 1 at line 2"),
            std::string::npos);
  EXPECT_NE(read_error("3 1\n0 -1\n")
                .find("malformed edge line (expected 'u v') at line 2"),
            std::string::npos);
  EXPECT_NE(read_error("3 1\n+0 1\n").find("malformed edge line"),
            std::string::npos);
  EXPECT_NE(read_error("3 1\n-0 1\n").find("malformed edge line"),
            std::string::npos);
  EXPECT_NE(read_error("3 -1\n").find("malformed header (expected 'n m') at "
                                      "line 1"),
            std::string::npos);
  EXPECT_NE(read_error("+3 1\n0 1\n").find("malformed header"),
            std::string::npos);
  // Parallel edges in either orientation are merged, as before.
  EXPECT_EQ(read("3 3\n0 1\n1 0\n0 1\n").num_edges(), 1u);
}

TEST(EdgeListReader, SnapshotBodyErrorsAreAbsoluteLines) {
  EXPECT_NE(load_error("3 2\n0 1\n0 5\n")
                .find("endpoint 5 out of range for n=3 at line 6"),
            std::string::npos);
  EXPECT_NE(load_error("3 1\n1 1\n").find("self-loop on vertex 1 at line 5"),
            std::string::npos);
  EXPECT_NE(load_error("3 1\n0 -1\n").find("malformed edge line"),
            std::string::npos);
  EXPECT_NE(load_error("3 -1\n").find("malformed header (expected 'n m') at "
                                      "line 4"),
            std::string::npos);
  EXPECT_NE(load_error("3 1\n0 4294967296\n").find("at line 5"),
            std::string::npos);
  // A body straddling the scanner's block boundary still loads.
  const std::string body = pad_line(kBlock - 2) + "3 2\n0 1\n1 2\n";
  std::istringstream in("NAS-ORACLE v1\nparams none\nguarantee 1 0\n" + body);
  EXPECT_EQ(apps::SpannerDistanceOracle::load(in).spanner_edges(), 2u);
}

TEST(EdgeListReader, EveryFamilyRoundTrips) {
  for (const char* family :
       {"er", "er_dense", "gnm", "regular", "grid", "torus", "hypercube",
        "geometric", "ba", "caveman", "path", "cycle", "star", "complete",
        "tree", "dumbbell"}) {
    const Graph g = graph::make_workload(family, 300, 7);
    std::stringstream text;
    graph::write_edge_list(g, text);
    const Graph back = graph::read_edge_list(text);
    expect_same_graph(back, g);
    for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto a = g.neighbors(v);
      const auto b = back.neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << family << " vertex " << v;
    }
  }
}

// --- the query reader --------------------------------------------------------

std::vector<apps::Query> read_queries(const std::string& text) {
  std::istringstream in(text);
  return apps::read_queries(in, "q.txt");
}

TEST(QueryReader, SameGrammarAsTheEdgeList) {
  const auto q = read_queries("# c\n0 1\r\n\n2\t3 # x\n4 5#y\n6 7");
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q[1].u, 2u);
  EXPECT_EQ(q[3].v, 7u);
  EXPECT_EQ(read_queries("4294967295 0\n")[0].u, 4294967295u);
  for (const char* bad : {"0 1\n1\n", "0 1\n0 1 2\n", "0 1\n0 -1\n",
                          "0 1\n+0 1\n", "0 1\n0 4294967296\n"}) {
    EXPECT_NE(error_of([&] { (void)read_queries(bad); })
                  .find("q.txt: malformed query line (expected 'u v') at "
                        "line 2"),
              std::string::npos)
        << bad;
  }
}

// --- seeded mutation fuzzing -------------------------------------------------
//
// One mutation per input, drawn from a fixed Xoshiro256 stream over a few
// seed files: a byte flip, a truncation, a splice of two seeds, or a digit
// run replaced by 4294967295 / 4294967296.  Every input is read twice:
// as mutated, and behind a comment line sized so the mutated byte lands at
// the scanner's block boundary.  Properties: the reader never throws
// anything but std::runtime_error, every rejection names a line, the padded
// read agrees with the plain one (same graph, or the same error one line
// later), and every accepted input round-trips.
//
// Seed numbers have at most three digits, so a single mutation never
// declares more than 10^6 vertices — except a boundary run, which therefore
// never replaces the header's n with 4294967295 (a valid n whose Graph would
// take 32 GiB).

constexpr int kFuzzIterations = 12000;

std::size_t first_digit_run(const std::string& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] >= '0' && s[i] <= '9') return i;
  }
  return s.size();
}

/// One mutation of a seed drawn from `seeds`; `at` is set to a byte the
/// mutation touched.
std::string mutate(const std::vector<std::string>& seeds,
                   util::Xoshiro256& rng, std::size_t& at) {
  std::string s = seeds[rng.below(seeds.size())];
  switch (rng.below(4)) {
    case 0: {  // byte flip
      at = rng.below(s.size());
      s[at] = static_cast<char>(s[at] ^ static_cast<char>(1 + rng.below(255)));
      break;
    }
    case 1: {  // truncation
      at = rng.below(s.size() + 1);
      s.resize(at);
      break;
    }
    case 2: {  // splice: a prefix of s, a suffix of another seed
      const std::string& other = seeds[rng.below(seeds.size())];
      at = rng.below(s.size() + 1);
      s = s.substr(0, at) + other.substr(rng.below(other.size() + 1));
      break;
    }
    default: {  // a digit run at the 32-bit boundary
      std::vector<std::size_t> runs;
      for (std::size_t i = 0; i < s.size(); ++i) {
        const bool digit = s[i] >= '0' && s[i] <= '9';
        if (digit && (i == 0 || s[i - 1] < '0' || s[i - 1] > '9')) {
          runs.push_back(i);
        }
      }
      at = runs[rng.below(runs.size())];
      std::size_t len = 0;
      while (at + len < s.size() && s[at + len] >= '0' && s[at + len] <= '9') {
        ++len;
      }
      const bool header_n = at == first_digit_run(s);
      const char* value =
          header_n || rng.below(2) == 0 ? "4294967296" : "4294967295";
      s.replace(at, len, value);
      break;
    }
  }
  return s;
}

/// Pads `s` with a leading comment line so byte `at` lands near the block
/// boundary.
std::string pad_to_boundary(const std::string& s, std::size_t at,
                            util::Xoshiro256& rng) {
  const std::size_t target = kBlock - 4 + rng.below(8);
  return pad_line(target - std::min(at, target - 2)) + s;
}

void expect_padded_agrees(const Outcome& plain, const Outcome& padded,
                          const std::string& input) {
  ASSERT_EQ(plain.error.has_value(), padded.error.has_value())
      << "input: " << input;
  if (plain.error) {
    EXPECT_EQ(padded.line, plain.line + 1)
        << *plain.error << " vs " << *padded.error;
  }
}

TEST(IoFuzz, EdgeListMutations) {
  std::vector<std::string> seeds;
  for (const char* family : {"er", "grid", "star"}) {
    std::stringstream text;
    graph::write_edge_list(graph::make_workload(family, 30, 3), text);
    seeds.push_back(text.str());
  }
  seeds.push_back("# graph\n6 5 # header\n0 1\r\n1\t2\n\n2 3#x\n 3 4 \n4 5");
  util::Xoshiro256 rng(20260101);
  int accepted = 0;
  for (int it = 0; it < kFuzzIterations; ++it) {
    std::size_t at = 0;
    const std::string input = mutate(seeds, rng, at);
    const std::string padded = pad_to_boundary(input, at, rng);
    std::optional<Graph> g;
    std::optional<Graph> g_padded;
    const Outcome plain = run_reader([&] { g = read(input); });
    const Outcome pad = run_reader([&] { g_padded = read(padded); });
    expect_padded_agrees(plain, pad, input);
    if (!g || !g_padded) continue;
    ++accepted;
    expect_same_graph(*g_padded, *g);
    std::stringstream text;
    graph::write_edge_list(*g, text);
    expect_same_graph(graph::read_edge_list(text), *g);
  }
  // The budget exercises both outcomes.
  EXPECT_GT(accepted, kFuzzIterations / 50);
  EXPECT_LT(accepted, kFuzzIterations);
}

TEST(IoFuzz, QueryFileMutations) {
  std::string generated;
  for (const auto& q : apps::make_query_workload(500, {"uniform", 40, 5, 0})) {
    generated += std::to_string(q.u) + " " + std::to_string(q.v) + "\n";
  }
  const std::vector<std::string> seeds = {
      generated, "# queries\n0 1\r\n2\t3 # x\n\n4 5#y\n 6 7 \n8 9"};
  util::Xoshiro256 rng(20260102);
  int accepted = 0;
  for (int it = 0; it < kFuzzIterations; ++it) {
    std::size_t at = 0;
    const std::string input = mutate(seeds, rng, at);
    const std::string padded = pad_to_boundary(input, at, rng);
    std::optional<std::vector<apps::Query>> q;
    std::optional<std::vector<apps::Query>> q_padded;
    const Outcome plain = run_reader([&] { q = read_queries(input); });
    const Outcome pad = run_reader([&] { q_padded = read_queries(padded); });
    expect_padded_agrees(plain, pad, input);
    if (plain.error) {
      EXPECT_EQ(plain.error->rfind("q.txt: ", 0), 0u) << *plain.error;
    }
    if (!q || !q_padded) continue;
    ++accepted;
    std::string rendered;
    for (const auto& one : *q) {
      rendered += std::to_string(one.u) + " " + std::to_string(one.v) + "\n";
    }
    const auto back = read_queries(rendered);
    ASSERT_EQ(back.size(), q->size());
    ASSERT_EQ(q_padded->size(), q->size());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_EQ(back[i].u, (*q)[i].u);
      EXPECT_EQ(back[i].v, (*q)[i].v);
      EXPECT_EQ((*q_padded)[i].u, (*q)[i].u);
      EXPECT_EQ((*q_padded)[i].v, (*q)[i].v);
    }
  }
  EXPECT_GT(accepted, kFuzzIterations / 50);
  EXPECT_LT(accepted, kFuzzIterations);
}

}  // namespace
