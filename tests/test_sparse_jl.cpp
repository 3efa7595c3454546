#include "transform/sparse_jl.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/status.hpp"
#include "geometry/generators.hpp"

namespace mpte {
namespace {

TEST(SparseJlSign, DistributionIsOneSixthEachSide) {
  std::size_t plus = 0, minus = 0, zero = 0;
  const std::size_t trials = 60000;
  for (std::size_t i = 0; i < trials; ++i) {
    const int s = sparse_jl_sign(7, i / 300, i % 300);
    plus += s == 1;
    minus += s == -1;
    zero += s == 0;
  }
  EXPECT_NEAR(static_cast<double>(plus) / trials, 1.0 / 6.0, 0.01);
  EXPECT_NEAR(static_cast<double>(minus) / trials, 1.0 / 6.0, 0.01);
  EXPECT_NEAR(static_cast<double>(zero) / trials, 2.0 / 3.0, 0.01);
}

TEST(SparseJlSign, Deterministic) {
  EXPECT_EQ(sparse_jl_sign(1, 2, 3), sparse_jl_sign(1, 2, 3));
}

TEST(SparseJl, ValidatesDimensions) {
  EXPECT_THROW(SparseJl(0, 4, 1), MpteError);
  EXPECT_THROW(SparseJl(4, 0, 1), MpteError);
}

TEST(SparseJl, NonzerosNearOneThird) {
  const SparseJl jl(300, 40, 3);
  const double density = static_cast<double>(jl.nonzeros()) / (300.0 * 40.0);
  EXPECT_NEAR(density, 1.0 / 3.0, 0.02);
}

TEST(SparseJl, NormPreservedInExpectation) {
  const PointSet point = generate_uniform_cube(1, 64, 1.0, 5);
  std::vector<double> zero(64, 0.0);
  const double norm_sq = l2_distance_squared(point[0], zero);
  double sum_ratio = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const SparseJl jl(64, 16, 500 + t);
    const PointSet mapped = jl.transform(point);
    double mapped_sq = 0.0;
    for (const double v : mapped.raw()) mapped_sq += v * v;
    sum_ratio += mapped_sq / norm_sq;
  }
  EXPECT_NEAR(sum_ratio / trials, 1.0, 0.08);
}

TEST(SparseJl, PairwiseDistancesWithinXi) {
  const std::size_t n = 40;
  const double xi = 0.5;
  const PointSet points =
      generate_gaussian_clusters(n, 100, 4, 10.0, 1.0, 7);
  // The standard JL target dimension ceil(8 ln(n) / xi^2).
  const std::size_t k = 119;
  const SparseJl jl(100, k, 9);
  const PointSet mapped = jl.transform(points);
  std::size_t violations = 0, pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double orig = l2_distance(points[i], points[j]);
      const double now = l2_distance(mapped[i], mapped[j]);
      ++pairs;
      if (now < (1 - xi) * orig || now > (1 + xi) * orig) ++violations;
    }
  }
  EXPECT_LE(violations, pairs / 50);
}

TEST(SparseJl, DeterministicTransform) {
  const PointSet points = generate_uniform_cube(8, 50, 1.0, 11);
  const PointSet a = SparseJl(50, 12, 13).transform(points);
  const PointSet b = SparseJl(50, 12, 13).transform(points);
  const PointSet c = SparseJl(50, 12, 14).transform(points);
  EXPECT_EQ(a.raw(), b.raw());
  EXPECT_NE(a.raw(), c.raw());
}

TEST(SparseJl, LinearMap) {
  const SparseJl jl(20, 6, 15);
  // Rows: x, y and x + y.
  PointSet points(3, 20);
  points.coord(0, 2) = points.coord(2, 2) = 3.0;
  points.coord(1, 17) = points.coord(2, 17) = -1.5;
  const PointSet mapped = jl.transform(points);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(mapped.coord(2, i), mapped.coord(0, i) + mapped.coord(1, i),
                1e-12);
  }
}

}  // namespace
}  // namespace mpte
