// Tests for the NAS-ORACLE v2 binary snapshot: round-trips against the v1
// text golden baseline, format auto-detection, zero-copy cluster warmup
// (every shard viewing one mapping), the offset-numbered corruption corpus
// (the binary mirror of v1's 17-case line-numbered corpus), and the scenario
// runner's snapshot-format axis digest-independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "apps/query_workload.hpp"
#include "apps/snapshot.hpp"
#include "core/elkin_matar.hpp"
#include "graph/generators.hpp"
#include "run/runner.hpp"
#include "run/scenario.hpp"
#include "serve/cluster.hpp"

namespace {

using namespace nas;
using apps::SnapshotFormat;
using apps::SpannerDistanceOracle;
using core::Params;
using graph::Graph;
using graph::Vertex;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::byte> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<char> chars{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  const auto* bytes = reinterpret_cast<const std::byte*>(chars.data());
  return {bytes, bytes + chars.size()};
}

void spit(const std::string& path, const std::vector<std::byte>& image) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
}

template <typename T>
void put(std::vector<std::byte>& image, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof value, image.size());
  std::memcpy(image.data() + offset, &value, sizeof value);
}

/// Recomputes and stores the integrity checksum so a crafted snapshot's
/// *only* defect is the one under test (the checksum gate runs before the
/// semantic validators).
void restamp(std::vector<std::byte>& image) {
  const auto sum = apps::snapshot_v2_checksum(image);
  std::memcpy(image.data() + 80, &sum, sizeof sum);
}

void expect_v2_error(const std::vector<std::byte>& image,
                     const std::string& expected) {
  const std::string path = temp_path("corrupt.naso2");
  spit(path, image);
  try {
    (void)apps::load_snapshot_v2(path);
    FAIL() << "expected rejection for: " << expected;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << "got: " << e.what();
  }
}

core::SpannerResult build_result(const Graph& g) {
  const auto params = Params::practical(g.num_vertices(), 0.5, 3, 0.4);
  return core::build_spanner(g, params, {.validate = false});
}

// --- format plumbing ---------------------------------------------------------

TEST(SnapshotFormat, ParseAndName) {
  EXPECT_EQ(apps::parse_snapshot_format("v1"), SnapshotFormat::kV1);
  EXPECT_EQ(apps::parse_snapshot_format("v2"), SnapshotFormat::kV2);
  EXPECT_THROW((void)apps::parse_snapshot_format("v3"), std::invalid_argument);
  EXPECT_THROW((void)apps::parse_snapshot_format(""), std::invalid_argument);
  EXPECT_STREQ(apps::snapshot_format_name(SnapshotFormat::kV1), "v1");
  EXPECT_STREQ(apps::snapshot_format_name(SnapshotFormat::kV2), "v2");
}

TEST(SnapshotFormat, DetectionSniffsMagic) {
  const Graph g = graph::make_workload("er", 60, 1);
  const SpannerDistanceOracle oracle(build_result(g));
  const std::string v1 = temp_path("detect.naso");
  const std::string v2 = temp_path("detect.naso2");
  oracle.save_file(v1, SnapshotFormat::kV1);
  oracle.save_file(v2, SnapshotFormat::kV2);
  EXPECT_EQ(apps::detect_snapshot_format(v1), SnapshotFormat::kV1);
  EXPECT_EQ(apps::detect_snapshot_format(v2), SnapshotFormat::kV2);
  EXPECT_THROW((void)apps::detect_snapshot_format(temp_path("missing.naso")),
               std::runtime_error);
  // Short or unrecognized files fall through to v1, whose reader owns the
  // detailed text diagnostics.
  const std::string stub = temp_path("stub.naso");
  spit(stub, {});
  EXPECT_EQ(apps::detect_snapshot_format(stub), SnapshotFormat::kV1);
}

// --- round-trips -------------------------------------------------------------

TEST(SnapshotV2, RoundTripPreservesAnswersParamsAndGuarantee) {
  const Graph g = graph::make_workload("ba", 250, 7);
  const SpannerDistanceOracle original(build_result(g));
  ASSERT_TRUE(original.params().has_value());

  const std::string path = temp_path("roundtrip.naso2");
  original.save_file(path, SnapshotFormat::kV2);
  const auto loaded = SpannerDistanceOracle::load_file(path);  // auto-detects

  EXPECT_EQ(loaded.spanner_edges(), original.spanner_edges());
  EXPECT_EQ(loaded.num_vertices(), original.num_vertices());
  EXPECT_EQ(loaded.multiplicative(), original.multiplicative());
  EXPECT_EQ(loaded.additive(), original.additive());
  ASSERT_TRUE(loaded.params().has_value());
  EXPECT_EQ(loaded.params()->kappa(), original.params()->kappa());
  EXPECT_EQ(loaded.params()->ell(), original.params()->ell());

  const auto queries =
      apps::make_query_workload(g.num_vertices(), {"zipf", 400, 13, 1.1});
  EXPECT_EQ(loaded.batch_query(queries, 2), original.batch_query(queries, 2));
}

TEST(SnapshotV2, V1ToV2ToV1IsByteIdenticalText) {
  const Graph g = graph::make_workload("grid", 144, 3);
  const auto params = Params::paper(g.num_vertices(), 0.5, 3, 0.4);
  const SpannerDistanceOracle original(g, params);

  const std::string a = temp_path("ident_a.naso");
  const std::string b = temp_path("ident_b.naso2");
  const std::string c = temp_path("ident_c.naso");
  original.save_file(a, SnapshotFormat::kV1);
  const auto via_v2 = SpannerDistanceOracle::load_file(a);
  via_v2.save_file(b, SnapshotFormat::kV2);
  SpannerDistanceOracle::load_file(b).save_file(c, SnapshotFormat::kV1);
  EXPECT_EQ(slurp(a), slurp(c));
}

TEST(SnapshotV2, BaselineWithoutParamsAndEdgelessGraphRoundTrip) {
  const SpannerDistanceOracle external(graph::make_workload("path", 40, 1),
                                       3.0, 2.0);  // externally proven
  const std::string path = temp_path("noparams.naso2");
  external.save_file(path, SnapshotFormat::kV2);
  const auto loaded = SpannerDistanceOracle::load_file(path);
  EXPECT_FALSE(loaded.params().has_value());
  EXPECT_EQ(loaded.multiplicative(), 3.0);
  EXPECT_EQ(loaded.additive(), 2.0);
  EXPECT_EQ(loaded.spanner_edges(), external.spanner_edges());

  const SpannerDistanceOracle edgeless(Graph::from_edges(5, {}), 1.0, 0.0);
  const std::string empty = temp_path("edgeless.naso2");
  edgeless.save_file(empty, SnapshotFormat::kV2);
  const auto back = SpannerDistanceOracle::load_file(empty);
  EXPECT_EQ(back.num_vertices(), 5u);
  EXPECT_EQ(back.spanner_edges(), 0u);
  EXPECT_EQ(back.query(0, 4), graph::kInfDist);
}

// --- zero-copy cluster warmup ------------------------------------------------

TEST(SnapshotV2, ClusterWarmupSharesOneMappingAcrossShards) {
  const Graph g = graph::make_workload("er", 300, 5);
  auto result = build_result(g);
  const double mult = result.params.stretch_multiplicative();
  const double add = result.params.stretch_additive();
  const SpannerDistanceOracle original(std::move(result));
  const std::string path = temp_path("cluster.naso2");
  original.save_file(path, SnapshotFormat::kV2);

  const auto cluster = serve::ShardedCluster::from_snapshot_files(
      {path}, {.shards = 4, .partition = "hash"});
  ASSERT_EQ(cluster.num_shards(), 4u);
  EXPECT_EQ(cluster.multiplicative(), mult);
  EXPECT_EQ(cluster.additive(), add);
  for (unsigned s = 1; s < cluster.num_shards(); ++s) {
    EXPECT_TRUE(
        cluster.shard(s).csr().shares_storage_with(cluster.shard(0).csr()))
        << "shard " << s << " replicated the structure instead of sharing it";
    EXPECT_TRUE(cluster.shard(s).search_csr().shares_storage_with(
        cluster.shard(0).search_csr()))
        << "shard " << s << " relabelled the spanner again";
  }

  auto mutable_cluster = serve::ShardedCluster::from_snapshot_files(
      {path}, {.shards = 4, .partition = "hash"});
  const auto queries =
      apps::make_query_workload(g.num_vertices(), {"zipf", 500, 17, 0.99});
  EXPECT_EQ(mutable_cluster.serve(queries, 2),
            original.batch_query(queries, 1));
}

TEST(SnapshotV2, DirectlyBuiltClusterSharesStorageToo) {
  const Graph g = graph::make_workload("er", 200, 9);
  const serve::ShardedCluster cluster(g, 3.0, 4.0, {.shards = 3});
  for (unsigned s = 1; s < cluster.num_shards(); ++s) {
    EXPECT_TRUE(
        cluster.shard(s).csr().shares_storage_with(cluster.shard(0).csr()));
    EXPECT_TRUE(cluster.shard(s).search_csr().shares_storage_with(
        cluster.shard(0).search_csr()));
  }
}

// A loaded oracle searches a relabelled copy, but csr() stays the image's
// input-order arrays: equal to the spanner's CSR, and a view into the image
// (offsets and entries back to back, as the file lays them out), not a
// copy.
TEST(SnapshotV2, LoadedCsrStaysInInputOrderAndViewsTheImage) {
  const Graph g = graph::make_workload("geometric", 500, 4);
  const SpannerDistanceOracle original(build_result(g));
  const std::string path = temp_path("input_order.naso2");
  original.save_file(path, SnapshotFormat::kV2);
  const auto loaded = SpannerDistanceOracle::load_file(path);

  const auto expect = graph::Csr::from_graph(original.spanner());
  EXPECT_TRUE(std::ranges::equal(loaded.csr().offsets(), expect.offsets()));
  EXPECT_TRUE(std::ranges::equal(loaded.csr().entries(), expect.entries()));
  const auto* offsets_end = reinterpret_cast<const std::byte*>(
      loaded.csr().offsets().data() + loaded.csr().offsets().size());
  EXPECT_EQ(offsets_end,
            reinterpret_cast<const std::byte*>(loaded.csr().entries().data()));
  EXPECT_FALSE(
      loaded.search_csr().shares_storage_with(loaded.csr()));

  const auto queries =
      apps::make_query_workload(g.num_vertices(), {"uniform", 300, 5, 0.0});
  EXPECT_EQ(loaded.batch_query(queries, 2), original.batch_query(queries, 1));
}

// --- corruption corpus -------------------------------------------------------

// Crafted over a 4-vertex path (edges 0-1, 1-2, 2-3): header 96 bytes,
// offsets [0,1,3,5,6] at 96, entries [1, 0,2, 1,3, 2] at 136, 160 total.
std::vector<std::byte> path_image() {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const SpannerDistanceOracle oracle(g, 1.0, 2.0);
  const std::string path = temp_path("corpus_base.naso2");
  oracle.save_file(path, SnapshotFormat::kV2);
  auto image = slurp(path);
  EXPECT_EQ(image.size(), 96u + 8 * 5 + 4 * 6);
  return image;
}

TEST(SnapshotV2Corpus, RejectsMalformedImagesWithByteOffsets) {
  const auto base = path_image();

  expect_v2_error({}, "truncated header");
  expect_v2_error(std::vector<std::byte>(base.begin(), base.begin() + 50),
                  "truncated header (file holds 50 of 96 bytes)");

  auto image = base;
  put(image, 0, static_cast<std::uint8_t>('X'));
  expect_v2_error(image, "bad magic");

  image = base;
  put(image, 8, std::uint32_t{7});
  restamp(image);
  expect_v2_error(image, "unsupported version 7");

  image = base;
  put(image, 8, std::uint32_t{0x02000000});  // version 2, byte-swapped
  restamp(image);
  expect_v2_error(image, "byte-swapped version field");

  image = base;
  put(image, 12, std::uint32_t{64});
  restamp(image);
  expect_v2_error(image, "unexpected header size 64");

  image = base;
  put(image, 16, std::uint64_t{0xFFFFFFFFull});  // n = kInvalidVertex
  restamp(image);
  expect_v2_error(image, "exceeds the 32-bit ID universe");

  image = base;
  put(image, 24, std::uint64_t{1} << 59);
  restamp(image);
  expect_v2_error(image, "implausible edge count");

  image = base;
  image.resize(image.size() + 4);  // trailing garbage
  expect_v2_error(image, "size mismatch");

  // Integrity: a single flipped bit anywhere fails the checksum gate.
  image = base;
  image[150] ^= std::byte{0x01};  // payload (entry section)
  expect_v2_error(image, "checksum mismatch");
  image = base;
  image[65] ^= std::byte{0x01};  // header (guarantee field)
  expect_v2_error(image, "checksum mismatch");

  image = base;
  put(image, 32, std::uint32_t{7});
  restamp(image);
  expect_v2_error(image, "unknown params mode 7");

  // CSR invariants, each named with the offending byte offset.
  image = base;
  put(image, 96, std::uint64_t{5});  // offsets[0]
  restamp(image);
  expect_v2_error(image, "offset array must start at 0 (found 5)");
  expect_v2_error(image, "at offset 96");

  image = base;
  put(image, 96 + 16, std::uint64_t{0});  // offsets[2] < offsets[1]
  restamp(image);
  expect_v2_error(image, "offset array not nondecreasing at vertex 2");

  image = base;
  put(image, 96 + 24, std::uint64_t{4});  // offsets become [0,1,3,4,4]:
  put(image, 96 + 32, std::uint64_t{4});  // monotone but ending short of 2m
  restamp(image);
  expect_v2_error(image, "offset array ends at 4");

  image = base;
  put(image, 136, std::uint32_t{99});  // vertex 0's neighbor
  restamp(image);
  expect_v2_error(image, "neighbor 99 out of range for n=4");
  expect_v2_error(image, "at offset 136");

  image = base;
  put(image, 136, std::uint32_t{0});  // vertex 0 adjacent to itself
  restamp(image);
  expect_v2_error(image, "self-loop at vertex 0");

  image = base;
  put(image, 140, std::uint32_t{2});  // vertex 1's list becomes [2, 2]
  put(image, 144, std::uint32_t{2});
  restamp(image);
  expect_v2_error(image, "adjacency list of vertex 1 not strictly ascending");
}

TEST(SnapshotV2Corpus, ParamsAndGuaranteeGuardsKeepOffsetContract) {
  const Graph g = graph::make_workload("er", 50, 2);
  const SpannerDistanceOracle oracle(build_result(g));
  const std::string path = temp_path("corpus_params.naso2");
  oracle.save_file(path, SnapshotFormat::kV2);
  const auto base = slurp(path);

  // Semantically out-of-range constructor arguments (kappa < 2).
  auto image = base;
  put(image, 36, std::int32_t{1});
  restamp(image);
  expect_v2_error(image, "invalid params at offset 32");

  // A recorded guarantee the recomputed schedule cannot reproduce.
  image = base;
  put(image, 64, 999.0);
  restamp(image);
  expect_v2_error(image, "disagrees with the recorded pair");
}

// --- scenario-runner axis ----------------------------------------------------

TEST(SnapshotAxis, MatrixExpandsInnermostAndIdsNameTheFormat) {
  run::ScenarioMatrix m;
  m.ns = {256};
  m.workloads = {"uniform"};
  m.cluster_shards = {1, 2};
  m.snapshot_formats = {"none", "v1", "v2"};
  const auto specs = m.expand();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].snapshot_format, "none");
  EXPECT_EQ(specs[1].snapshot_format, "v1");
  EXPECT_EQ(specs[2].snapshot_format, "v2");
  EXPECT_EQ(specs[2].cluster_shards, 1u);
  EXPECT_EQ(specs[3].cluster_shards, 2u);
  EXPECT_EQ(specs[0].id().find("/sf="), std::string::npos);
  EXPECT_NE(specs[1].id().find("/sf=v1"), std::string::npos);
  EXPECT_NE(specs[5].id().find("/sf=v2"), std::string::npos);
  EXPECT_THROW(m.set("snapshot-format", "v9"), std::invalid_argument);
}

TEST(SnapshotAxis, RunnerAnswersAreFormatIndependent) {
  run::ScenarioMatrix m;
  m.ns = {200};
  m.workloads = {"uniform"};
  m.queries = 300;
  m.cluster_shards = {1, 2};
  m.snapshot_formats = {"none", "v1", "v2"};

  run::Runner runner;
  const auto rows = runner.run(m.expand());
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& row : rows) {
    ASSERT_TRUE(row.ok) << row.spec.id() << ": " << row.error;
    EXPECT_EQ(row.oracle_digest, rows.front().oracle_digest) << row.spec.id();
    if (row.spec.snapshot_format == "none") {
      EXPECT_EQ(row.snapshot_bytes, 0u);
    } else {
      EXPECT_GT(row.snapshot_bytes, 0u) << row.spec.id();
    }
  }
  // The binary image stores the same structure in fixed-width fields; both
  // formats must agree per (shards) point on what they serialized.
  EXPECT_EQ(rows[1].spanner_edges, rows[2].spanner_edges);
}

}  // namespace
