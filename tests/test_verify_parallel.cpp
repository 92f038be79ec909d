// The verification-pipeline determinism contract: the source-sharded
// parallel stretch verifier returns bit-identical results to the serial
// path at every thread count, on six graph families — plus the hardened
// edge-list reader's error reporting.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/elkin_matar.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "verify/stretch.hpp"

namespace {

using namespace nas;
using graph::Graph;

// Thread counts every parallel result must reproduce bit-for-bit; 0 means
// hardware concurrency, whatever that is on the host.
const unsigned kThreadCounts[] = {1, 2, 8, 0};

struct FamilyCase {
  std::string family;
  graph::Vertex n;
  std::uint64_t seed;
};

std::vector<FamilyCase> family_cases() {
  return {{"er", 120, 5},      {"grid", 100, 7},     {"tree", 127, 9},
          {"cycle", 60, 11},   {"dumbbell", 80, 13}, {"hypercube", 64, 15}};
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The authoritative check is verify::bit_identical (kept in sync with the
// struct); the per-field EXPECTs below only exist to name the diverging
// field in a failure message.
void expect_bit_identical(const verify::StretchReport& got,
                          const verify::StretchReport& want,
                          const std::string& what) {
  EXPECT_TRUE(verify::bit_identical(got, want)) << what;
  EXPECT_EQ(got.bound_ok, want.bound_ok) << what;
  EXPECT_EQ(got.connectivity_ok, want.connectivity_ok) << what;
  EXPECT_EQ(got.pairs_checked, want.pairs_checked) << what;
  EXPECT_EQ(bits(got.max_multiplicative), bits(want.max_multiplicative))
      << what;
  EXPECT_EQ(bits(got.mean_multiplicative), bits(want.mean_multiplicative))
      << what;
  EXPECT_EQ(got.max_additive, want.max_additive) << what;
  EXPECT_EQ(bits(got.max_excess), bits(want.max_excess)) << what;
  EXPECT_EQ(got.worst_u, want.worst_u) << what;
  EXPECT_EQ(got.worst_v, want.worst_v) << what;
  EXPECT_EQ(got.worst_dg, want.worst_dg) << what;
  EXPECT_EQ(got.worst_dh, want.worst_dh) << what;
}

Graph spanner_of(const Graph& g) {
  const auto params = core::Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  return core::build_spanner(g, params, {.validate = false}).spanner;
}

TEST(VerifyParallel, ExactBitIdenticalAcrossThreadCounts) {
  for (const auto& tc : family_cases()) {
    const Graph g = graph::make_workload(tc.family, tc.n, tc.seed);
    const Graph h = spanner_of(g);
    // m = 1 makes every stretched pair carry positive excess, so the
    // worst-pair witness is live and its tie-breaking is covered too.
    const auto serial = verify::verify_stretch_exact(g, h, 1.0, 1e18);
    for (unsigned threads : kThreadCounts) {
      const auto parallel = verify::verify_stretch_exact(g, h, 1.0, 1e18,
                                                         threads);
      expect_bit_identical(parallel, serial,
                           tc.family + " exact, threads=" +
                               std::to_string(threads));
    }
  }
}

TEST(VerifyParallel, SampledBitIdenticalAcrossThreadCounts) {
  for (const auto& tc : family_cases()) {
    const Graph g = graph::make_workload(tc.family, tc.n, tc.seed);
    const Graph h = spanner_of(g);
    const auto serial =
        verify::verify_stretch_sampled(g, h, 1.0, 1e18, 24, 9);
    for (unsigned threads : kThreadCounts) {
      const auto parallel =
          verify::verify_stretch_sampled(g, h, 1.0, 1e18, 24, 9, threads);
      expect_bit_identical(parallel, serial,
                           tc.family + " sampled, threads=" +
                               std::to_string(threads));
    }
  }
}

// The verifier searches relabelled copies of G and H but accumulates in
// input vertex order, and over G it runs 64 sources per multi-source pass
// where the graph is dense enough (geometric, er, caveman and ba at
// n = 600) and one single-source pass per source where it is not (grid).
// Either way its reports must equal, bit for bit, those of the verifier
// that ran one single-source search of G and one of H per source, from
// which these are pinned, at every thread count.  The 100-source samples split
// into lane groups of 64 and 36.  m = 1 keeps the worst-pair witness live;
// it is reported in input IDs.  The grid's spanner is the grid itself, so
// its witness stays at the sentinel.
TEST(VerifyParallel, ReportsPinnedBitForBitOnGeometricAndEr) {
  const auto report = [](bool bound_ok, std::uint64_t pairs,
                         std::uint64_t max_mult, std::uint64_t mean_mult,
                         std::uint64_t max_add, std::uint64_t max_excess,
                         graph::Vertex u, graph::Vertex v, std::uint32_t dg,
                         std::uint32_t dh) {
    verify::StretchReport r;
    r.bound_ok = bound_ok;
    r.connectivity_ok = true;
    r.pairs_checked = pairs;
    r.max_multiplicative = std::bit_cast<double>(max_mult);
    r.mean_multiplicative = std::bit_cast<double>(mean_mult);
    r.max_additive = max_add;
    r.max_excess = std::bit_cast<double>(max_excess);
    r.worst_u = u;
    r.worst_v = v;
    r.worst_dg = dg;
    r.worst_dh = dh;
    return r;
  };
  constexpr graph::Vertex kNone = graph::kInvalidVertex;
  struct Pinned {
    const char* family;
    verify::StretchReport exact;       // m = 1, a = 4
    verify::StretchReport sampled;     // m = 1, a = 2, 40 sources, seed 9
    verify::StretchReport sampled100;  // m = 1, a = 2, 100 sources, seed 9
  };
  const Pinned cases[] = {
      {"geometric",
       report(false, 359400, 0x4037000000000000, 0x4000c747bb223a16, 22,
              0x4036000000000000, 50, 254, 1, 23),
       report(false, 23960, 0x4033000000000000, 0x40008a7e3a57d586, 22,
              0x4036000000000000, 456, 87, 3, 25),
       report(false, 59900, 0x4036000000000000, 0x4000f1beff47057b, 22,
              0x4036000000000000, 359, 87, 3, 25)},
      {"er",
       report(false, 358202, 0x4024000000000000, 0x3fff893551aeedd9, 9,
              0x4022000000000000, 176, 377, 1, 10),
       report(false, 23920, 0x4022000000000000, 0x3ffeec9719953761, 8,
              0x4020000000000000, 30, 120, 1, 9),
       report(false, 59800, 0x4024000000000000, 0x3fff7df6579ae6c7, 9,
              0x4022000000000000, 338, 427, 1, 10)},
      {"caveman",
       report(false, 359400, 0x4033000000000000, 0x3ff24b40c5de6b4b, 18,
              0x4032000000000000, 304, 308, 1, 19),
       report(false, 23960, 0x4021000000000000, 0x3ff1f951a55e5515, 15,
              0x402e000000000000, 312, 308, 2, 17),
       report(false, 59900, 0x4033000000000000, 0x3ff2148da6b064a8, 18,
              0x4032000000000000, 307, 308, 1, 19)},
      {"ba",
       report(false, 359400, 0x4020000000000000, 0x3ff7deaaf8db8e7e, 7,
              0x401c000000000000, 139, 408, 1, 8),
       report(false, 23960, 0x401c000000000000, 0x3ff81832bd09cba4, 6,
              0x4018000000000000, 79, 517, 1, 7),
       report(false, 59900, 0x4020000000000000, 0x3ff81052d7428c96, 7,
              0x401c000000000000, 139, 408, 1, 8)},
      {"grid",
       report(true, 331200, 0x3ff0000000000000, 0x3ff0000000000000, 0, 0,
              kNone, kNone, 0, 0),
       report(true, 23000, 0x3ff0000000000000, 0x3ff0000000000000, 0, 0,
              kNone, kNone, 0, 0),
       report(true, 57500, 0x3ff0000000000000, 0x3ff0000000000000, 0, 0,
              kNone, kNone, 0, 0)},
  };
  for (const auto& pinned : cases) {
    const Graph g = graph::make_workload(pinned.family, 600, 7);
    const Graph h = spanner_of(g);
    for (unsigned threads : kThreadCounts) {
      const std::string where =
          std::string(pinned.family) + ", threads=" + std::to_string(threads);
      expect_bit_identical(verify::verify_stretch_exact(g, h, 1.0, 4.0, threads),
                           pinned.exact, where + " exact");
      expect_bit_identical(
          verify::verify_stretch_sampled(g, h, 1.0, 2.0, 40, 9, threads),
          pinned.sampled, where + " sampled");
      expect_bit_identical(
          verify::verify_stretch_sampled(g, h, 1.0, 2.0, 100, 9, threads),
          pinned.sampled100, where + " sampled, 100 sources");
    }
  }
}

TEST(VerifyParallel, ViolationAndWitnessIdenticalUnderSharding) {
  // Severing cycle(6) into path(6) makes (0, 5) the worst pair; every thread
  // count must agree on the violation and on the witness.
  const Graph g = graph::cycle(6);
  const Graph h = graph::path(6);
  for (unsigned threads : kThreadCounts) {
    const auto rep = verify::verify_stretch_exact(g, h, 1.0, 2.0, threads);
    EXPECT_FALSE(rep.bound_ok);
    EXPECT_EQ(rep.worst_u, 0u);
    EXPECT_EQ(rep.worst_v, 5u);
    EXPECT_EQ(rep.worst_dg, 1u);
    EXPECT_EQ(rep.worst_dh, 5u);
  }
}

TEST(VerifyParallel, MoreThreadsThanSourcesIsFine) {
  const Graph g = graph::path(3);
  const auto serial = verify::verify_stretch_exact(g, g, 1.0, 0.0);
  const auto parallel = verify::verify_stretch_exact(g, g, 1.0, 0.0, 64);
  expect_bit_identical(parallel, serial, "threads > n");
}

TEST(VerifyParallel, WitnessStaysSentinelWithoutPositiveExcess) {
  // H = G: no pair has positive excess, so the witness fields must keep
  // their documented sentinel values at every thread count.
  const Graph g = graph::make_workload("er", 150, 3);
  for (unsigned threads : kThreadCounts) {
    const auto rep = verify::verify_stretch_exact(g, g, 1.0, 0.0, threads);
    EXPECT_TRUE(rep.bound_ok);
    EXPECT_DOUBLE_EQ(rep.max_excess, 0.0);
    EXPECT_EQ(rep.worst_u, graph::kInvalidVertex);
    EXPECT_EQ(rep.worst_v, graph::kInvalidVertex);
    EXPECT_EQ(rep.worst_dg, 0u);
    EXPECT_EQ(rep.worst_dh, 0u);
  }
}

TEST(VerifyParallel, MismatchedSizesThrowAtAnyThreadCount) {
  const Graph g = graph::path(4);
  const Graph h = graph::path(5);
  for (unsigned threads : kThreadCounts) {
    EXPECT_THROW((void)verify::verify_stretch_exact(g, h, 1, 0, threads),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Hardened edge-list reader.

TEST(IoHardening, MalformedEdgeLineThrowsWithLineNumber) {
  std::stringstream in("3 2\n0 1\nnot-an-edge\n");
  try {
    (void)graph::read_edge_list(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(IoHardening, GarbageHeaderThrowsWithLineNumber) {
  std::stringstream in("# comment\nnot a header\n");
  try {
    (void)graph::read_edge_list(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(IoHardening, ShortEdgeListThrows) {
  std::stringstream in("4 3\n0 1\n1 2\n");  // declares 3 edges, has 2
  EXPECT_THROW((void)graph::read_edge_list(in), std::runtime_error);
}

TEST(IoHardening, OverlongEdgeListThrows) {
  std::stringstream in("4 1\n0 1\n1 2\n");  // declares 1 edge, has 2
  EXPECT_THROW((void)graph::read_edge_list(in), std::runtime_error);
}

TEST(IoHardening, TrailingTokensThrow) {
  std::stringstream header("3 1 extra\n0 1\n");
  EXPECT_THROW((void)graph::read_edge_list(header), std::runtime_error);
  std::stringstream edge("3 1\n0 1 9\n");
  EXPECT_THROW((void)graph::read_edge_list(edge), std::runtime_error);
}

TEST(IoHardening, CommentsAndBlankLinesStillAccepted) {
  std::stringstream in(
      "# leading comment\n"
      "\n"
      "4 2  # inline comment\n"
      "   \n"
      "0 1\n"
      "2 3  # another\n");
  const Graph g = graph::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(2, 3));
}

}  // namespace
