#include "apps/nearest_neighbor.hpp"

#include <gtest/gtest.h>

#include "core/embedder.hpp"
#include "geometry/generators.hpp"

namespace mpte {
namespace {

Embedding make_embedding(const PointSet& points, std::uint64_t seed) {
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = seed;
  auto result = embed(points, options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(ExactNearestNeighbor, KnownConfiguration) {
  PointSet points(4, 1, {0.0, 10.0, 11.0, 30.0});
  const auto nn = exact_nearest_neighbor(points, 1);
  EXPECT_EQ(nn.neighbor, 2u);
  EXPECT_NEAR(nn.distance, 1.0, 1e-12);
  EXPECT_EQ(nn.candidates, 3u);
  EXPECT_THROW((void)exact_nearest_neighbor(PointSet(1, 1), 0), MpteError);
}

TEST(TreeNearestNeighbor, NeverReturnsQueryItself) {
  const PointSet points = generate_uniform_cube(80, 3, 30.0, 3);
  const Embedding embedding = make_embedding(points, 5);
  for (std::size_t q = 0; q < points.size(); ++q) {
    const auto nn = tree_nearest_neighbor(embedding.tree, points, q, 8);
    EXPECT_NE(nn.neighbor, q);
    EXPECT_GT(nn.candidates, 0u);
    EXPECT_GT(nn.distance, 0.0);
  }
}

TEST(TreeNearestNeighbor, BudgetLimitsWork) {
  const PointSet points = generate_uniform_cube(200, 3, 30.0, 7);
  const Embedding embedding = make_embedding(points, 9);
  const auto nn = tree_nearest_neighbor(embedding.tree, points, 0, 10);
  EXPECT_LE(nn.candidates, 10u);
}

TEST(TreeNearestNeighbor, DistanceWithinDistortionOfExact) {
  const PointSet points = generate_uniform_cube(150, 4, 30.0, 11);
  const Embedding embedding = make_embedding(points, 13);
  double worst_ratio = 0.0;
  for (std::size_t q = 0; q < points.size(); ++q) {
    const auto approx =
        tree_nearest_neighbor(embedding.tree, points, q, 16);
    const auto exact = exact_nearest_neighbor(points, q);
    EXPECT_GE(approx.distance, exact.distance - 1e-12);
    worst_ratio = std::max(worst_ratio, approx.distance / exact.distance);
  }
  // Approximation governed by the embedding distortion; generous ceiling.
  EXPECT_LT(worst_ratio, 50.0);
}

TEST(TreeNearestNeighbor, MostlyExactOnClusteredData) {
  // With well-separated tight clusters the tree keeps each cluster
  // together, so the tree answer usually IS the exact nearest neighbor.
  const PointSet points =
      generate_gaussian_clusters(120, 3, 6, 1000.0, 1.0, 15);
  const Embedding embedding = make_embedding(points, 17);
  std::size_t exact_hits = 0;
  for (std::size_t q = 0; q < points.size(); ++q) {
    const auto approx =
        tree_nearest_neighbor(embedding.tree, points, q, 24);
    const auto exact = exact_nearest_neighbor(points, q);
    if (approx.distance <= exact.distance * 1.0 + 1e-12) ++exact_hits;
  }
  EXPECT_GT(exact_hits, points.size() / 2);
}

TEST(TreeNearestNeighbor, HandlesDuplicatePoints) {
  PointSet points(6, 2, {5, 5, 5, 5, 5, 5, 40, 40, 41, 41, 42, 42});
  const Embedding embedding = make_embedding(points, 19);
  const auto nn = tree_nearest_neighbor(embedding.tree, points, 0, 2);
  EXPECT_NE(nn.neighbor, 0u);
  EXPECT_NEAR(nn.distance, 0.0, 1e-12);  // a duplicate
}

TEST(TreeNearestNeighbor, ValidatesInputs) {
  const PointSet points = generate_uniform_cube(20, 3, 20.0, 25);
  const Embedding embedding = make_embedding(points, 27);
  const PointSet fewer = generate_uniform_cube(5, 3, 20.0, 29);
  EXPECT_THROW((void)tree_nearest_neighbor(embedding.tree, fewer, 0, 4),
               MpteError);
}

}  // namespace
}  // namespace mpte
