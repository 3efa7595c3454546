#include "geometry/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/status.hpp"
#include "geometry/bounding_box.hpp"
#include "oracles.hpp"

namespace mpte {
namespace {

TEST(Generators, UniformCubeInBounds) {
  const PointSet points = generate_uniform_cube(500, 4, 7.0, 1);
  EXPECT_EQ(points.size(), 500u);
  EXPECT_EQ(points.dim(), 4u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.dim(); ++j) {
      EXPECT_GE(points.coord(i, j), 0.0);
      EXPECT_LE(points.coord(i, j), 7.0);
    }
  }
}

TEST(Generators, UniformCubeDeterministicBySeed) {
  const PointSet a = generate_uniform_cube(50, 3, 1.0, 9);
  const PointSet b = generate_uniform_cube(50, 3, 1.0, 9);
  const PointSet c = generate_uniform_cube(50, 3, 1.0, 10);
  EXPECT_EQ(a.raw(), b.raw());
  EXPECT_NE(a.raw(), c.raw());
}

TEST(Generators, GaussianClustersConcentrate) {
  const PointSet points =
      generate_gaussian_clusters(400, 3, 4, 100.0, 0.5, 2);
  EXPECT_EQ(points.size(), 400u);
  // With stddev 0.5 and centers spread over [0,100]^3, the nearest-cluster
  // structure shows up as most points being within ~4 units of some other
  // point but the overall spread being much larger.
  const BoundingBox box = BoundingBox::of(points);
  EXPECT_GT(box.width(), 20.0);
}

TEST(Generators, SubspacePointsHaveLowRank) {
  const std::size_t n = 60, d = 20, k = 2;
  const PointSet points = generate_subspace(n, d, k, 5.0, 0.0, 3);
  // Every point is a combination of k basis vectors: verify via rank of
  // the Gram matrix against 4 random directions being (numerically) rank
  // k. Cheap proxy: distances from each point to the span of the first
  // k points should be ~0... instead check that k+1 generic points are
  // affinely dependent: volume of the simplex they span (via Gram
  // determinant of differences) is ~0 for k+1+1 points.
  // Use points 0..k+1: differences relative to point 0.
  std::vector<std::vector<double>> diff;
  for (std::size_t i = 1; i <= k + 1; ++i) {
    std::vector<double> v(d);
    for (std::size_t j = 0; j < d; ++j) {
      v[j] = points.coord(i, j) - points.coord(0, j);
    }
    diff.push_back(std::move(v));
  }
  // Gram matrix of k+1 difference vectors has rank <= k => det ~ 0.
  const std::size_t m = diff.size();
  std::vector<std::vector<double>> gram(m, std::vector<double>(m, 0.0));
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      for (std::size_t j = 0; j < d; ++j) gram[a][b] += diff[a][j] * diff[b][j];
    }
  }
  // Gaussian elimination determinant.
  double det = 1.0;
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < m; ++row) {
      if (std::abs(gram[row][col]) > std::abs(gram[pivot][col])) pivot = row;
    }
    std::swap(gram[col], gram[pivot]);
    if (std::abs(gram[col][col]) < 1e-9) {
      det = 0.0;
      break;
    }
    det *= gram[col][col];
    for (std::size_t row = col + 1; row < m; ++row) {
      const double f = gram[row][col] / gram[col][col];
      for (std::size_t j = col; j < m; ++j) gram[row][j] -= f * gram[col][j];
    }
  }
  EXPECT_NEAR(det, 0.0, 1e-6);
}

TEST(Generators, SubspaceNoiseRaisesRank) {
  const PointSet points = generate_subspace(10, 8, 1, 5.0, 0.1, 4);
  EXPECT_EQ(points.dim(), 8u);
  // Just a smoke check that noise doesn't blow up coordinates.
  const BoundingBox box = BoundingBox::of(points);
  EXPECT_LT(box.width(), 20.0);
}

TEST(Generators, LatticeIsRegular) {
  const PointSet points = generate_lattice(27, 3, 2.0);
  EXPECT_EQ(points.size(), 27u);
  // First point is the origin; second advances the first coordinate.
  EXPECT_EQ(points.coord(0, 0), 0.0);
  EXPECT_EQ(points.coord(1, 0), 2.0);
  EXPECT_EQ(points.coord(1, 1), 0.0);
  // All coordinates are multiples of the step.
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const double q = points.coord(i, j) / 2.0;
      EXPECT_NEAR(q, std::round(q), 1e-12);
    }
  }
  // Distinct points.
  const auto ext = pairwise_distance_extremes(points);
  EXPECT_GE(ext.min, 2.0 - 1e-9);
}

TEST(Generators, TwoBlobsSeparated) {
  const PointSet points = generate_two_blobs(200, 4, 50.0, 0.5, 5);
  double mean_first = 0.0, mean_second = 0.0;
  for (std::size_t i = 0; i < 100; ++i) mean_first += points.coord(i, 0);
  for (std::size_t i = 100; i < 200; ++i) mean_second += points.coord(i, 0);
  EXPECT_NEAR(mean_first / 100, 0.0, 1.0);
  EXPECT_NEAR(mean_second / 100, 50.0, 1.0);
}

TEST(Generators, PairAtDistanceExact) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const PointSet pair = generate_pair_at_distance(6, 100.0, 12.5, seed);
    ASSERT_EQ(pair.size(), 2u);
    EXPECT_NEAR(l2_distance(pair[0], pair[1]), 12.5, 1e-9);
    for (const double x : pair.raw()) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 100.0);
    }
  }
}

TEST(Generators, PairAtDistanceTooLargeThrows) {
  EXPECT_THROW(generate_pair_at_distance(2, 1.0, 5.0, 1), MpteError);
}

}  // namespace
}  // namespace mpte
