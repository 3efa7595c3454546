#include "apps/kmedian.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/status.hpp"
#include "core/embedder.hpp"
#include "geometry/generators.hpp"
#include "oracles.hpp"

namespace mpte {
namespace {

Embedding small_embedding(const PointSet& points, std::uint64_t seed) {
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = seed;
  auto result = embed(points, options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

/// Brute-force k-median under the tree's cluster metric d' = 2*down(lca),
/// for validating the DP on tiny instances.
double brute_force_cluster_metric(const Hst& tree, std::size_t k) {
  const std::size_t n = tree.num_points();
  // down[] per node.
  std::vector<double> down(tree.num_nodes(), 0.0);
  for (std::size_t i = tree.num_nodes(); i-- > 1;) {
    const auto parent = static_cast<std::size_t>(tree.node(i).parent);
    down[parent] = std::max(down[parent], down[i] + tree.node(i).edge_weight);
  }
  const auto dist = [&](std::size_t a, std::size_t b) {
    return a == b ? 0.0 : 2.0 * down[walk_lca(tree, a, b)];
  };
  std::vector<std::size_t> combo(k);
  for (std::size_t i = 0; i < k; ++i) combo[i] = i;
  double best = 1e300;
  for (;;) {
    double total = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      double nearest = 1e300;
      for (const std::size_t m : combo) nearest = std::min(nearest, dist(p, m));
      total += nearest;
    }
    best = std::min(best, total);
    std::size_t i = k;
    bool advanced = false;
    while (i-- > 0) {
      if (combo[i] != i + n - k) {
        ++combo[i];
        for (std::size_t j = i + 1; j < k; ++j) combo[j] = combo[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) return best;
  }
}

TEST(TreeKMedian, ValidatesK) {
  const PointSet points = generate_uniform_cube(10, 2, 10.0, 1);
  const Embedding embedding = small_embedding(points, 2);
  EXPECT_THROW((void)tree_kmedian_dp(embedding.tree, 0), MpteError);
}

TEST(TreeKMedian, KEqualsNIsFree) {
  const PointSet points = generate_uniform_cube(8, 2, 10.0, 3);
  const Embedding embedding = small_embedding(points, 4);
  const auto result = tree_kmedian_dp(embedding.tree, 8);
  EXPECT_EQ(result.medians.size(), 8u);
  EXPECT_EQ(result.tree_cost, 0.0);
}

TEST(TreeKMedian, KLargerThanNClamped) {
  const PointSet points = generate_uniform_cube(5, 2, 10.0, 5);
  const Embedding embedding = small_embedding(points, 6);
  const auto result = tree_kmedian_dp(embedding.tree, 50);
  EXPECT_EQ(result.medians.size(), 5u);
}

TEST(TreeKMedian, MediansAreDistinctValidPoints) {
  const PointSet points = generate_uniform_cube(30, 3, 10.0, 7);
  const Embedding embedding = small_embedding(points, 8);
  const auto result = tree_kmedian_dp(embedding.tree, 4);
  EXPECT_EQ(result.medians.size(), 4u);
  std::set<std::size_t> unique(result.medians.begin(), result.medians.end());
  EXPECT_EQ(unique.size(), 4u);
  for (const std::size_t m : result.medians) EXPECT_LT(m, 30u);
}

class TreeKMedianOptimality
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(TreeKMedianOptimality, MatchesBruteForceUnderClusterMetric) {
  const auto [n, k] = GetParam();
  const PointSet points = generate_uniform_cube(n, 3, 20.0, 10 + n + k);
  const Embedding embedding = small_embedding(points, 20 + n * k);
  const auto dp = tree_kmedian_dp(embedding.tree, k);
  const double brute = brute_force_cluster_metric(embedding.tree, k);
  EXPECT_NEAR(dp.tree_cost, brute, 1e-9 * (1.0 + brute))
      << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, TreeKMedianOptimality,
    ::testing::Values(std::make_tuple(6, 1), std::make_tuple(6, 2),
                      std::make_tuple(8, 2), std::make_tuple(8, 3),
                      std::make_tuple(10, 2), std::make_tuple(10, 4)));

TEST(TreeKMedian, CostDecreasesInK) {
  const PointSet points = generate_uniform_cube(25, 3, 20.0, 11);
  const Embedding embedding = small_embedding(points, 12);
  double prev = 1e300;
  for (std::size_t k = 1; k <= 6; ++k) {
    const double cost = tree_kmedian_dp(embedding.tree, k).tree_cost;
    EXPECT_LE(cost, prev + 1e-9) << "k=" << k;
    prev = cost;
  }
}

TEST(KMedianCost, EuclideanEvaluation) {
  PointSet points(3, 1, {0.0, 10.0, 11.0});
  EXPECT_NEAR(kmedian_cost(points, {0}), 21.0, 1e-12);
  EXPECT_NEAR(kmedian_cost(points, {0, 2}), 1.0, 1e-12);
  EXPECT_THROW((void)kmedian_cost(points, {}), MpteError);
}

TEST(ExactKMedian, TinyInstance) {
  PointSet points(4, 1, {0.0, 1.0, 10.0, 11.0});
  // k=2: choose one in each pair: cost 2.
  EXPECT_NEAR(exact_kmedian_cost(points, 2), 2.0, 1e-12);
  EXPECT_THROW((void)exact_kmedian_cost(points, 0), MpteError);
  EXPECT_THROW((void)exact_kmedian_cost(points, 5), MpteError);
}

TEST(TreeKMedian, EuclideanQualityWithinDistortionOfOptimal) {
  // The medians chosen on the tree evaluated in Euclidean metric land
  // within a moderate factor of the exhaustive optimum on clustered data.
  const PointSet points = generate_gaussian_clusters(14, 2, 2, 100.0, 1.0, 13);
  const Embedding embedding = small_embedding(points, 14);
  const auto dp = tree_kmedian_dp(embedding.tree, 2);
  const double tree_quality = kmedian_cost(points, dp.medians);
  const double optimal = exact_kmedian_cost(points, 2);
  EXPECT_LT(tree_quality, 30.0 * optimal + 1e-9);
}

}  // namespace
}  // namespace mpte
