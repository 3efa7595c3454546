#include "core/embedding_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/checksum.hpp"
#include "geometry/generators.hpp"
#include "tree/hst_io.hpp"

namespace mpte {
namespace {

Embedding sample_embedding(std::uint64_t seed = 3, std::size_t n = 50) {
  const PointSet points = generate_uniform_cube(n, 4, 30.0, seed);
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = seed;
  auto result = embed(points, options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

// Payload offsets of a static embedding (empty point ids): the 49-byte
// header (magic, version, scale, delta, buckets, grids, dim, fjlt,
// retries), the id count, the has_points byte, then the points or the
// tree.
constexpr std::size_t kIdCountAt = 49;
constexpr std::size_t kHasPointsAt = kIdCountAt + 8;
constexpr std::size_t kBodyAt = kHasPointsAt + 1;

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

/// Writes `payload` behind a valid envelope (or raw) and loads it back.
Result<Embedding> load_payload(const std::vector<std::uint8_t>& payload,
                               const std::string& name,
                               bool enveloped = true) {
  const std::string path = ::testing::TempDir() + name;
  EXPECT_TRUE(
      write_file_atomic(path, enveloped ? wrap_checksummed(payload) : payload)
          .ok());
  auto result = try_load_embedding(path);
  std::remove(path.c_str());
  return result;
}

void expect_invalid(const Result<Embedding>& result) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().to_string();
}

TEST(EmbeddingIo, RoundTripWithPoints) {
  const Embedding original = sample_embedding();
  const Embedding restored =
      embedding_from_bytes(embedding_to_bytes(original, true));
  EXPECT_EQ(restored.scale_to_input, original.scale_to_input);
  EXPECT_EQ(restored.delta_used, original.delta_used);
  EXPECT_EQ(restored.buckets_used, original.buckets_used);
  EXPECT_EQ(restored.grids_used, original.grids_used);
  EXPECT_EQ(restored.dim_used, original.dim_used);
  EXPECT_EQ(restored.fjlt_applied, original.fjlt_applied);
  EXPECT_EQ(restored.retries_used, original.retries_used);
  EXPECT_EQ(restored.embedded_points.raw(),
            original.embedded_points.raw());
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = i + 1; j < 50; ++j) {
      EXPECT_EQ(restored.distance(i, j), original.distance(i, j));
    }
  }
}

TEST(EmbeddingIo, RoundTripWithoutPointsIsSmaller) {
  const Embedding original = sample_embedding(5);
  const auto with_points = embedding_to_bytes(original, true);
  const auto without = embedding_to_bytes(original, false);
  EXPECT_LT(without.size(), with_points.size());
  const Embedding restored = embedding_from_bytes(without);
  EXPECT_TRUE(restored.embedded_points.empty());
  // Tree-metric queries still work.
  EXPECT_EQ(restored.distance(0, 1), original.distance(0, 1));
}

TEST(EmbeddingIo, RejectsCorruptHeader) {
  auto bytes = embedding_to_bytes(sample_embedding(7));
  bytes[0] ^= 0x01;
  EXPECT_THROW((void)embedding_from_bytes(bytes), MpteError);
}

TEST(EmbeddingIo, RejectsTruncation) {
  auto bytes = embedding_to_bytes(sample_embedding(9));
  bytes.resize(bytes.size() - 10);
  EXPECT_THROW((void)embedding_from_bytes(bytes), MpteError);
}

TEST(EmbeddingIo, FileRoundTrip) {
  const Embedding original = sample_embedding(11);
  const std::string path = "/tmp/mpte_embedding_io_test.bin";
  save_embedding(original, path);
  const Embedding restored = load_embedding(path);
  EXPECT_EQ(restored.distance(3, 17), original.distance(3, 17));
  std::remove(path.c_str());
  EXPECT_THROW((void)load_embedding(path), MpteError);
}

TEST(EmbeddingIo, RejectsOnDiskCorruption) {
  const Embedding original = sample_embedding(13);
  const std::string path = "/tmp/mpte_embedding_io_corrupt.bin";
  save_embedding(original, path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(32);
    const char byte = static_cast<char>(f.get());
    f.seekp(32);
    f.put(static_cast<char>(byte ^ 0x55));
  }
  const auto result = try_load_embedding(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().to_string().find("checksum"),
            std::string::npos);
  EXPECT_THROW((void)load_embedding(path), MpteError);

  // Truncate the file below its declared payload size.
  save_embedding(original, path);
  std::filesystem::resize_file(path, 24);
  expect_invalid(try_load_embedding(path));
  std::remove(path.c_str());
}

TEST(EmbeddingIo, HostileIdCountBehindAValidEnvelopeIsAStatus) {
  // The stable-id count follows the 49-byte header (magic, version,
  // scale, delta, buckets, grids, dim, fjlt, retries). 2^61 + 1 ids of 8
  // bytes wrap to 8 bytes; the checksum is recomputed, so only the
  // decoder stands between the count and the allocator.
  auto payload = embedding_to_bytes(sample_embedding(15));
  std::uint64_t count = 0;
  std::memcpy(&count, payload.data() + kIdCountAt, sizeof(count));
  ASSERT_EQ(count, 0u);  // a static embedding stores no ids
  count = (std::uint64_t{1} << 61) + 1;
  std::memcpy(payload.data() + kIdCountAt, &count, sizeof(count));
  const auto enveloped = wrap_checksummed(payload);
  const std::string path =
      ::testing::TempDir() + "mpte_embedding_io_hostile.bin";
  ASSERT_TRUE(write_file_atomic(path, enveloped).ok());
  const auto result = try_load_embedding(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(EmbeddingIo, HostileNodeCountBehindAValidEnvelopeIsAStatus) {
  // The tree's node count is 2^61 + 1: its 40-byte records wrap to 40
  // bytes, and 40 bytes follow. The decoder must refuse the count before
  // it allocates.
  auto payload = embedding_to_bytes(sample_embedding(25), false);
  const std::size_t node_count_at = kBodyAt + 8;  // after magic, version
  payload.resize(node_count_at + 8 + 40, 0);
  put_u64(payload, node_count_at, (std::uint64_t{1} << 61) + 1);
  expect_invalid(load_payload(payload, "mpte_embedding_io_nodes.bin"));
}

TEST(EmbeddingIo, HostilePointDimensionBehindAValidEnvelopeIsAStatus) {
  // 60 points of dimension 2^62 and no coordinates: 60 * 2^62 wraps to 0,
  // the coordinate count, so only an overflow-free size check refuses it.
  Embedding embedding = sample_embedding(27, 60);
  embedding.embedded_points = PointSet();
  auto payload = embedding_to_bytes(embedding, true);
  ASSERT_EQ(payload[kHasPointsAt], 1);
  put_u64(payload, kBodyAt, 60);
  put_u64(payload, kBodyAt + 8, std::uint64_t{1} << 62);
  expect_invalid(load_payload(payload, "mpte_embedding_io_dim.bin"));
}

TEST(EmbeddingIo, NonFiniteScaleOrCoordinateIsRejected) {
  // Every distance a file serves is multiplied by its scale, so a NaN,
  // infinite, zero or negative scale, or one that overflows the tree's
  // distances, would make answers NaN, infinite or meaningless; a
  // non-finite coordinate is refused too.
  const auto payload = embedding_to_bytes(sample_embedding(35), true);
  ASSERT_TRUE(load_payload(payload, "mpte_embedding_io_valid.bin").ok());
  constexpr std::size_t kScaleAt = 8;  // after magic and version
  constexpr std::size_t kFirstCoordinateAt = kBodyAt + 24;  // n, dim, count
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double scale :
       {nan, inf, -inf, 0.0, -1.5, std::numeric_limits<double>::max()}) {
    auto mutated = payload;
    std::memcpy(mutated.data() + kScaleAt, &scale, sizeof(scale));
    expect_invalid(load_payload(mutated, "mpte_embedding_io_scale.bin"));
  }
  ASSERT_EQ(payload[kHasPointsAt], 1);
  for (const double coordinate : {nan, inf, -inf}) {
    auto mutated = payload;
    std::memcpy(mutated.data() + kFirstCoordinateAt, &coordinate,
                sizeof(coordinate));
    expect_invalid(load_payload(mutated, "mpte_embedding_io_coord.bin"));
  }
}

TEST(EmbeddingIo, SaveRefusesWhatTheLoaderRefusesAndLeavesNoFile) {
  // One coordinate of 1e308 is finite, but the scale times the tree's
  // diameter bound overflows, so the decoder would refuse the file.
  PointSet points = generate_gaussian_clusters(200, 4, 3, 100.0, 1.0, 37);
  points.coord(4, 0) = 1e308;
  EmbedOptions options;
  options.seed = 1;
  const auto embedding = embed(points, options);
  ASSERT_TRUE(embedding.ok()) << embedding.status().to_string();
  const std::string path = ::testing::TempDir() + "mpte_embedding_io_wide.bin";
  std::remove(path.c_str());
  for (const bool include_points : {false, true}) {
    EXPECT_THROW(save_embedding(*embedding, path, include_points), MpteError);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
}

TEST(EmbeddingIo, RawPayloadFileIsRejected) {
  // Files without the checksummed envelope are not read.
  const auto payload = embedding_to_bytes(sample_embedding(29));
  expect_invalid(load_payload(payload, "mpte_embedding_io_raw.bin",
                              /*enveloped=*/false));
}

TEST(EmbeddingIo, VersionOnePayloadIsRejected) {
  // Version 1 had no id vector: the same payload without its id count.
  auto payload = embedding_to_bytes(sample_embedding(31), false);
  payload.erase(payload.begin() + kIdCountAt,
                payload.begin() + kHasPointsAt);
  payload[4] = 1;  // version field
  expect_invalid(load_payload(payload, "mpte_embedding_io_v1.bin"));
}

TEST(EmbeddingIo, HstVersionTwoPayloadIsRejected) {
  // The retired HST version 2 appended the point ids after the leaves;
  // ids travel in the embedding's own vector instead.
  const Embedding embedding = sample_embedding(33);
  auto payload = embedding_to_bytes(embedding, false);
  ASSERT_EQ(payload.size(), kBodyAt + hst_to_bytes(embedding.tree).size());
  payload[kBodyAt + 4] = 2;  // the tree's version field
  Serializer ids;
  ids.write_vector(std::vector<std::uint64_t>(embedding.tree.num_points()));
  const auto id_bytes = ids.take();
  payload.insert(payload.end(), id_bytes.begin(), id_bytes.end());
  expect_invalid(load_payload(payload, "mpte_embedding_io_hst_v2.bin"));
}

TEST(EmbeddingIo, TryLoadReportsMissingFileAsUnavailable) {
  const auto result = try_load_embedding("/nonexistent/dir/e.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(EmbeddingIo, PointIdsRoundTrip) {
  // Dynamic materializations carry stable external ids; the version-2
  // envelope must preserve them bit-for-bit.
  Embedding original = sample_embedding(17);
  for (std::size_t i = 0; i < original.tree.num_points(); ++i) {
    original.point_ids.push_back(3 * static_cast<std::uint64_t>(i) + 11);
  }
  const Embedding restored =
      embedding_from_bytes(embedding_to_bytes(original, false));
  EXPECT_EQ(restored.point_ids, original.point_ids);
}

TEST(EmbeddingIo, StaticEmbeddingsKeepEmptyPointIds) {
  // embed() leaves point_ids empty (dense identity is implicit); a round
  // trip must not invent ids.
  const Embedding restored =
      embedding_from_bytes(embedding_to_bytes(sample_embedding(19), false));
  EXPECT_TRUE(restored.point_ids.empty());
}

TEST(EmbeddingIo, RejectsPointIdCountMismatch) {
  Embedding original = sample_embedding(21);
  original.point_ids = {1, 2, 3};  // != num_points
  EXPECT_THROW(
      (void)embedding_from_bytes(embedding_to_bytes(original, false)),
      MpteError);
}

}  // namespace
}  // namespace mpte
