#include "apps/emd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/embedder.hpp"
#include "geometry/generators.hpp"

namespace mpte {
namespace {

/// Builds one embedding over the concatenation of a and b.
Embedding embed_union(const PointSet& a, const PointSet& b,
                      std::uint64_t seed) {
  PointSet all = a;
  for (std::size_t i = 0; i < b.size(); ++i) all.push_back(b[i]);
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = seed;
  auto result = embed(all, options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(ExactEmd, ValidatesInputs) {
  const PointSet a = generate_uniform_cube(3, 2, 1.0, 1);
  const PointSet b = generate_uniform_cube(4, 2, 1.0, 2);
  EXPECT_THROW((void)exact_emd(a, b), MpteError);
  const PointSet c = generate_uniform_cube(3, 3, 1.0, 3);
  EXPECT_THROW((void)exact_emd(a, c), MpteError);
  EXPECT_EQ(exact_emd(PointSet(0, 2), PointSet(0, 2)), 0.0);
}

TEST(ExactEmd, IdenticalSetsCostZero) {
  const PointSet a = generate_uniform_cube(10, 3, 5.0, 5);
  EXPECT_NEAR(exact_emd(a, a), 0.0, 1e-9);
}

TEST(ExactEmd, SinglePairIsDistance) {
  PointSet a(1, 2, {0, 0});
  PointSet b(1, 2, {3, 4});
  EXPECT_NEAR(exact_emd(a, b), 5.0, 1e-12);
}

TEST(ExactEmd, PicksOptimalMatching) {
  // a = {0, 10}, b = {1, 11} on a line: identity matching costs 2, the
  // crossed matching costs 20.
  PointSet a(2, 1, {0, 10});
  PointSet b(2, 1, {1, 11});
  EXPECT_NEAR(exact_emd(a, b), 2.0, 1e-12);
}

TEST(ExactEmd, TranslationCost) {
  // Translating a set by v costs exactly n * ||v|| when disjoint supports
  // line up.
  const PointSet a = generate_uniform_cube(8, 2, 1.0, 7);
  PointSet b = a;
  for (std::size_t i = 0; i < b.size(); ++i) b[i][0] += 100.0;
  EXPECT_NEAR(exact_emd(a, b), 8 * 100.0, 8 * 2.0);
}

TEST(TreeEmd, BalancedSidesRequired) {
  const PointSet a = generate_uniform_cube(4, 2, 10.0, 9);
  const PointSet b = generate_uniform_cube(4, 2, 10.0, 10);
  const Embedding embedding = embed_union(a, b, 11);
  std::vector<int> bad_side(8, 1);  // sums to 8, not 0
  EXPECT_THROW((void)tree_emd(embedding.tree, bad_side), MpteError);
  std::vector<int> short_side(3, 0);
  EXPECT_THROW((void)tree_emd(embedding.tree, short_side), MpteError);
}

TEST(TreeEmd, DominatesExactEmd) {
  // Tree distances dominate Euclidean, so the tree flow (an upper bound on
  // the optimal tree matching too) dominates true EMD. Units: the tree is
  // built on quantized coordinates, so compare in input units.
  const PointSet a = generate_uniform_cube(12, 3, 20.0, 13);
  const PointSet b = generate_uniform_cube(12, 3, 20.0, 14);
  const Embedding embedding = embed_union(a, b, 15);
  const double tree =
      tree_emd_split(embedding.tree, a.size()) * embedding.scale_to_input;
  const double exact = exact_emd(a, b);
  EXPECT_GE(tree, exact * (1.0 - 0.06));
}

TEST(TreeEmd, ApproximationReasonableOnAverage) {
  // Average the tree EMD over independent trees; the ratio to exact EMD
  // should be modest (the Corollary 1.3 regime).
  const PointSet a = generate_uniform_cube(15, 3, 20.0, 17);
  const PointSet b = generate_uniform_cube(15, 3, 20.0, 18);
  const double exact = exact_emd(a, b);
  double sum_tree = 0.0;
  const int trees = 8;
  for (int t = 0; t < trees; ++t) {
    const Embedding embedding = embed_union(a, b, 100 + t);
    sum_tree +=
        tree_emd_split(embedding.tree, a.size()) * embedding.scale_to_input;
  }
  const double avg_ratio = sum_tree / trees / exact;
  EXPECT_GE(avg_ratio, 0.9);
  EXPECT_LT(avg_ratio, 60.0);
}

TEST(TreeEmd, ZeroWhenSidesCoincide) {
  // Identical multisets on both sides: every subtree balances.
  const PointSet a = generate_uniform_cube(10, 2, 10.0, 19);
  const Embedding embedding = embed_union(a, a, 21);
  // Points i and i + n are identical, so side +1/-1 cancels within each
  // leaf cluster.
  EXPECT_NEAR(tree_emd_split(embedding.tree, a.size()), 0.0, 1e-9);
}

TEST(TreeEmd, CustomSidesMatchSplitHelper) {
  const PointSet a = generate_uniform_cube(6, 2, 10.0, 23);
  const PointSet b = generate_uniform_cube(6, 2, 10.0, 24);
  const Embedding embedding = embed_union(a, b, 25);
  std::vector<int> side(12);
  for (std::size_t i = 0; i < 12; ++i) side[i] = i < 6 ? 1 : -1;
  EXPECT_EQ(tree_emd(embedding.tree, side),
            tree_emd_split(embedding.tree, 6));
}

}  // namespace
}  // namespace mpte
