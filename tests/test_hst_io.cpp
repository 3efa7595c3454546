#include "tree/hst_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/embedder.hpp"
#include "geometry/generators.hpp"

namespace mpte {
namespace {

Hst sample_tree(std::uint64_t seed = 3) {
  const PointSet points = generate_uniform_cube(60, 4, 30.0, seed);
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = seed;
  auto result = embed(points, options);
  EXPECT_TRUE(result.ok());
  return std::move(result->tree);
}

void expect_same_metric(const Hst& a, const Hst& b) {
  ASSERT_EQ(a.num_points(), b.num_points());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (std::size_t i = 0; i < a.num_points(); ++i) {
    for (std::size_t j = i + 1; j < a.num_points(); ++j) {
      EXPECT_EQ(a.distance(i, j), b.distance(i, j));
    }
  }
}

TEST(HstIo, BytesRoundTrip) {
  const Hst tree = sample_tree();
  const auto bytes = hst_to_bytes(tree);
  const Hst restored = hst_from_bytes(bytes);
  EXPECT_TRUE(restored.validate().ok());
  expect_same_metric(tree, restored);
}

TEST(HstIo, PreservesNodeFields) {
  const Hst tree = sample_tree(7);
  const Hst restored = hst_from_bytes(hst_to_bytes(tree));
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    EXPECT_EQ(tree.node(i).cluster_id, restored.node(i).cluster_id);
    EXPECT_EQ(tree.node(i).parent, restored.node(i).parent);
    EXPECT_EQ(tree.node(i).level, restored.node(i).level);
    EXPECT_EQ(tree.node(i).edge_weight, restored.node(i).edge_weight);
    EXPECT_EQ(tree.node(i).point, restored.node(i).point);
    EXPECT_EQ(tree.node(i).subtree_size, restored.node(i).subtree_size);
  }
}

TEST(HstIo, RejectsBadMagic) {
  auto bytes = hst_to_bytes(sample_tree());
  bytes[0] ^= 0xff;
  EXPECT_THROW((void)hst_from_bytes(bytes), MpteError);
}

TEST(HstIo, RejectsBadVersion) {
  auto bytes = hst_to_bytes(sample_tree());
  bytes[4] = 0x7f;  // version field
  EXPECT_THROW((void)hst_from_bytes(bytes), MpteError);
}

TEST(HstIo, RejectsTruncatedInput) {
  auto bytes = hst_to_bytes(sample_tree());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)hst_from_bytes(bytes), MpteError);
}

TEST(HstIo, HostileNodeCountInALegacyFileIsAStatus) {
  // 56 bytes of pre-envelope file: magic, version 1, a node count of
  // 2^61 + 1 (its 40-byte records wrap to 40 bytes), then 40 zero bytes.
  const auto valid = hst_to_bytes(sample_tree());
  std::vector<std::uint8_t> bytes(valid.begin(), valid.begin() + 8);
  const std::uint64_t count = (std::uint64_t{1} << 61) + 1;
  const auto* count_bytes = reinterpret_cast<const std::uint8_t*>(&count);
  bytes.insert(bytes.end(), count_bytes, count_bytes + sizeof(count));
  bytes.resize(56, 0);
  const std::string path = ::testing::TempDir() + "mpte_hst_io_hostile.tree";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const auto result = try_load_hst(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(HstIo, RejectsCorruptedStructure) {
  // Corrupt a parent pointer deep inside; validate() must catch it.
  const Hst tree = sample_tree(11);
  auto bytes = hst_to_bytes(tree);
  // Stream: magic(4) version(4) count(8), then 40-byte WireNodes laid out
  // cluster_id(8) point(8) parent(4) level(4) edge_weight(8)
  // subtree_size(4) padding(4). Flip node 1's subtree_size low byte.
  const std::size_t node1 = 4 + 4 + 8 + 40;
  bytes[node1 + 32] ^= 0x3f;
  EXPECT_THROW((void)hst_from_bytes(bytes), MpteError);
}

TEST(HstIo, FileRoundTrip) {
  const Hst tree = sample_tree(13);
  const std::string path = "/tmp/mpte_hst_io_test.bin";
  save_hst(tree, path);
  const Hst restored = load_hst(path);
  expect_same_metric(tree, restored);
  std::remove(path.c_str());
}

TEST(HstIo, MissingFileThrows) {
  EXPECT_THROW((void)load_hst("/nonexistent/dir/tree.bin"), MpteError);
  const auto result = try_load_hst("/nonexistent/dir/tree.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(HstIo, RejectsOnDiskCorruptionAndTruncation) {
  const Hst tree = sample_tree(19);
  const std::string path = "/tmp/mpte_hst_io_corrupt.bin";
  save_hst(tree, path);

  // Flip one payload byte: the checksum envelope must reject the file.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(40);
    const char byte = static_cast<char>(f.get());
    f.seekp(40);
    f.put(static_cast<char>(byte ^ 0x55));
  }
  auto result = try_load_hst(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().to_string().find("checksum"),
            std::string::npos);
  EXPECT_THROW((void)load_hst(path), MpteError);

  // Truncate the file below its declared payload size.
  save_hst(tree, path);
  std::filesystem::resize_file(path, 24);
  result = try_load_hst(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(HstIo, LoadsPreEnvelopeLegacyFiles) {
  // Files written before the checksum envelope existed are the raw
  // payload; they must still load.
  const Hst tree = sample_tree(23);
  const std::string path = "/tmp/mpte_hst_io_legacy.bin";
  const auto bytes = hst_to_bytes(tree);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const Hst restored = load_hst(path);
  expect_same_metric(tree, restored);
  std::remove(path.c_str());
}

TEST(HstIo, VersionTwoRoundTripsStableIds) {
  const Hst tree = sample_tree(29);
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < tree.num_points(); ++i) {
    ids.push_back(1000 + 7 * static_cast<std::uint64_t>(i));
  }
  Serializer out;
  serialize_hst(tree, ids, out);
  std::vector<std::uint64_t> restored_ids;
  const Hst restored = hst_from_bytes(out.take(), &restored_ids);
  expect_same_metric(tree, restored);
  EXPECT_EQ(restored_ids, ids);
}

TEST(HstIo, VersionTwoWritesDenseIdsForEmptySpan) {
  const Hst tree = sample_tree(31);
  Serializer out;
  serialize_hst(tree, std::span<const std::uint64_t>(), out);
  std::vector<std::uint64_t> ids;
  (void)hst_from_bytes(out.take(), &ids);
  ASSERT_EQ(ids.size(), tree.num_points());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

TEST(HstIo, LegacyPayloadSynthesizesDenseIds) {
  // A version-1 buffer carries no ids; the reader must hand back the
  // dense identity so pre-dyn files keep working under the new API.
  const Hst tree = sample_tree(37);
  std::vector<std::uint64_t> ids;
  const Hst restored = hst_from_bytes(hst_to_bytes(tree), &ids);
  expect_same_metric(tree, restored);
  ASSERT_EQ(ids.size(), tree.num_points());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

TEST(HstIo, VersionTwoRejectsIdCountMismatch) {
  const Hst tree = sample_tree(41);
  const std::vector<std::uint64_t> wrong(tree.num_points() + 1, 9);
  Serializer out;
  EXPECT_THROW(serialize_hst(tree, wrong, out), MpteError);
}

TEST(HstIo, VersionTwoFileLoadsThroughLegacyReader) {
  // load_hst ignores ids but must still accept a version-2 file.
  const Hst tree = sample_tree(43);
  std::vector<std::uint64_t> ids(tree.num_points());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 50 + i;
  const std::string path = "/tmp/mpte_hst_io_v2.bin";
  save_hst(tree, ids, path);
  expect_same_metric(tree, load_hst(path));
  std::remove(path.c_str());
}

TEST(HstIo, SizeIsCompact) {
  // The serialized tree is O(n) — far below the O(n*d) input. 60 points,
  // <= ~3 nodes/point after pruning, 48B/node.
  const auto bytes = hst_to_bytes(sample_tree(17));
  EXPECT_LT(bytes.size(), 60u * 64u * 4u);
}

}  // namespace
}  // namespace mpte
