#include "tree/hst_io.hpp"

#include <gtest/gtest.h>

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

/// Decodes a whole byte buffer as one tree.
Hst decode(const std::vector<std::uint8_t>& bytes) {
  Deserializer in(bytes);
  return deserialize_hst(in);
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
  const Hst restored = decode(bytes);
  EXPECT_TRUE(restored.validate().ok());
  expect_same_metric(tree, restored);
}

TEST(HstIo, PreservesNodeFields) {
  const Hst tree = sample_tree(7);
  const Hst restored = decode(hst_to_bytes(tree));
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
  EXPECT_THROW((void)decode(bytes), MpteError);
}

TEST(HstIo, RejectsBadVersion) {
  // Version 2 once appended stable ids; they live in the embedding now.
  for (const std::uint8_t version : {std::uint8_t{0x7f}, std::uint8_t{2}}) {
    auto bytes = hst_to_bytes(sample_tree());
    bytes[4] = version;  // version field
    EXPECT_THROW((void)decode(bytes), MpteError);
  }
}

TEST(HstIo, RejectsTruncatedInput) {
  auto bytes = hst_to_bytes(sample_tree());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)decode(bytes), MpteError);
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
  EXPECT_THROW((void)decode(bytes), MpteError);
}

TEST(HstIo, SizeIsCompact) {
  // The serialized tree is O(n) — far below the O(n*d) input. 60 points,
  // <= ~3 nodes/point after pruning, 48B/node.
  const auto bytes = hst_to_bytes(sample_tree(17));
  EXPECT_LT(bytes.size(), 60u * 64u * 4u);
}

}  // namespace
}  // namespace mpte
