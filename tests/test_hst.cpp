#include "tree/hst.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "oracles.hpp"

namespace mpte {
namespace {

/// Hand-built tree (edges drawn with / and |):
///          root(0)
///         /       |
///     a(1,w=4)   b(2,w=4)
///      /    |        |
///  leaf0   leaf1    leaf2
/// (w=0)    (w=2)    (w=0)
Hst make_small_tree() {
  std::vector<HstNode> nodes(6);
  nodes[0] = HstNode{100, -1, 0, 0.0, -1, 3};
  nodes[1] = HstNode{101, 0, 1, 4.0, -1, 2};
  nodes[2] = HstNode{102, 0, 1, 4.0, -1, 1};
  nodes[3] = HstNode{103, 1, 2, 0.0, 0, 1};
  nodes[4] = HstNode{104, 1, 2, 2.0, 1, 1};
  nodes[5] = HstNode{105, 2, 2, 0.0, 2, 1};
  return Hst(std::move(nodes), {3, 4, 5});
}

TEST(Hst, BasicShape) {
  const Hst tree = make_small_tree();
  EXPECT_EQ(tree.num_nodes(), 6u);
  EXPECT_EQ(tree.num_points(), 3u);
  EXPECT_EQ(tree.root(), 0u);
  EXPECT_EQ(tree.leaf(0), 3u);
  EXPECT_EQ(tree.children(0).size(), 2u);
  EXPECT_EQ(tree.children(1).size(), 2u);
  EXPECT_EQ(tree.depth(), 2u);
}

TEST(Hst, ValidatePasses) {
  EXPECT_TRUE(make_small_tree().validate().ok());
}

TEST(Hst, DistanceWithinSubtree) {
  const Hst tree = make_small_tree();
  // leaf0 and leaf1 meet at node a: 0 + 2.
  EXPECT_EQ(tree.distance(0, 1), 2.0);
}

TEST(Hst, DistanceAcrossRoot) {
  const Hst tree = make_small_tree();
  // leaf0 -> a -> root (0+4), leaf2 -> b -> root (0+4).
  EXPECT_EQ(tree.distance(0, 2), 8.0);
  EXPECT_EQ(tree.distance(1, 2), 2.0 + 4.0 + 4.0);
}

TEST(Hst, DistanceSymmetricAndZeroOnSelf) {
  const Hst tree = make_small_tree();
  EXPECT_EQ(tree.distance(0, 2), tree.distance(2, 0));
  EXPECT_EQ(tree.distance(1, 1), 0.0);
}

TEST(Hst, TriangleInequality) {
  const Hst tree = make_small_tree();
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_LE(tree.distance(a, c),
                  tree.distance(a, b) + tree.distance(b, c) + 1e-12);
      }
    }
  }
}

TEST(Hst, LcaIdentities) {
  const Hst tree = make_small_tree();
  EXPECT_EQ(walk_lca(tree, 0, 1), 1u);
  EXPECT_EQ(walk_lca(tree, 0, 2), 0u);
  EXPECT_EQ(walk_lca(tree, 2, 2), 5u);  // leaf itself
}

TEST(Hst, DepthWeight) {
  const Hst tree = make_small_tree();
  EXPECT_EQ(walk_depth_weight(tree, 4), 6.0);  // 2 + 4
  EXPECT_EQ(walk_depth_weight(tree, 0), 0.0);
}

TEST(Hst, NonTopologicalOrderThrows) {
  std::vector<HstNode> nodes(2);
  nodes[0] = HstNode{1, -1, 0, 0.0, -1, 1};
  nodes[1] = HstNode{2, 1, 1, 1.0, 0, 1};  // parent == self index
  EXPECT_THROW(Hst(std::move(nodes), {1}), MpteError);
}

TEST(Hst, EmptyThrows) {
  EXPECT_THROW(Hst({}, {}), MpteError);
}

TEST(Hst, ValidateCatchesBadSubtreeSize) {
  auto nodes = std::vector<HstNode>(3);
  nodes[0] = HstNode{1, -1, 0, 0.0, -1, 5};  // wrong: should be 2
  nodes[1] = HstNode{2, 0, 1, 1.0, 0, 1};
  nodes[2] = HstNode{3, 0, 1, 1.0, 1, 1};
  const Hst tree(std::move(nodes), {1, 2});
  EXPECT_FALSE(tree.validate().ok());
}

TEST(Hst, ValidateCatchesLevelInversion) {
  auto nodes = std::vector<HstNode>(2);
  nodes[0] = HstNode{1, -1, 5, 0.0, -1, 1};
  nodes[1] = HstNode{2, 0, 5, 1.0, 0, 1};  // same level as parent
  const Hst tree(std::move(nodes), {1});
  EXPECT_FALSE(tree.validate().ok());
}

TEST(Hst, ValidateCatchesNonFiniteWeight) {
  // A NaN weight slips past "weight < 0" and makes every distance through
  // it NaN.
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), -1.0}) {
    auto nodes = std::vector<HstNode>(2);
    nodes[0] = HstNode{1, -1, 0, 0.0, -1, 1};
    nodes[1] = HstNode{2, 0, 1, weight, 0, 1};
    EXPECT_FALSE(Hst(std::move(nodes), {1}).validate().ok()) << weight;
  }
}

TEST(Hst, ValidateCatchesMissingLeaf) {
  auto nodes = std::vector<HstNode>(2);
  nodes[0] = HstNode{1, -1, 0, 0.0, -1, 1};
  nodes[1] = HstNode{2, 0, 1, 1.0, 0, 1};
  // Two points claimed but only one leaf.
  EXPECT_FALSE(Hst(std::move(nodes), {1, 1}).validate().ok());
}

}  // namespace
}  // namespace mpte
