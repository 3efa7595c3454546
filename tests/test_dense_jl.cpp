#include "transform/dense_jl.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/status.hpp"
#include "geometry/generators.hpp"

namespace mpte {
namespace {

TEST(DenseJl, ShapeAndDeterminism) {
  const DenseJl jl(100, 20, 7);
  EXPECT_EQ(jl.input_dim(), 100u);
  EXPECT_EQ(jl.output_dim(), 20u);
  const PointSet points = generate_uniform_cube(5, 100, 1.0, 1);
  const PointSet a = jl.transform(points);
  const PointSet b = DenseJl(100, 20, 7).transform(points);
  EXPECT_EQ(a.raw(), b.raw());
  EXPECT_EQ(a.dim(), 20u);
  EXPECT_EQ(a.size(), 5u);
}

TEST(DenseJl, ZeroDimensionsThrow) {
  EXPECT_THROW(DenseJl(0, 5, 1), MpteError);
  EXPECT_THROW(DenseJl(5, 0, 1), MpteError);
}

TEST(DenseJl, NormPreservedInExpectation) {
  // Average ||phi(x)||^2 / ||x||^2 over many seeds concentrates at 1.
  const PointSet points = generate_uniform_cube(1, 64, 1.0, 3);
  const double norm_sq = l2_distance_squared(
      points[0], std::vector<double>(64, 0.0));
  double sum_ratio = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const DenseJl jl(64, 16, 1000 + t);
    const PointSet mapped = jl.transform(points);
    double mapped_sq = 0.0;
    for (const double x : mapped.raw()) mapped_sq += x * x;
    sum_ratio += mapped_sq / norm_sq;
  }
  EXPECT_NEAR(sum_ratio / trials, 1.0, 0.06);
}

TEST(DenseJl, PairwiseDistancesWithinXi) {
  const std::size_t n = 30;
  const double xi = 0.5;  // generous
  const PointSet points = generate_gaussian_clusters(n, 80, 3, 10.0, 1.0, 5);
  // The standard JL target dimension ceil(8 ln(n) / xi^2).
  const std::size_t k = 109;
  const DenseJl jl(80, k, 11);
  const PointSet mapped = jl.transform(points);
  std::size_t violations = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double orig = l2_distance(points[i], points[j]);
      const double now = l2_distance(mapped[i], mapped[j]);
      ++pairs;
      if (now < (1 - xi) * orig || now > (1 + xi) * orig) ++violations;
    }
  }
  // The JL guarantee is w.h.p. for all pairs; allow a tiny slack.
  EXPECT_LE(violations, pairs / 50);
}

TEST(DenseJl, LinearMap) {
  const DenseJl jl(10, 4, 13);
  // Rows: x, y and x + y.
  PointSet points(3, 10);
  points.coord(0, 3) = points.coord(2, 3) = 2.0;
  points.coord(1, 7) = points.coord(2, 7) = -1.0;
  const PointSet mapped = jl.transform(points);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(mapped.coord(2, i), mapped.coord(0, i) + mapped.coord(1, i),
                1e-12);
  }
}

}  // namespace
}  // namespace mpte
