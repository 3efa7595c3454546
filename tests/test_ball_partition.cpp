#include "partition/ball_partition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/math_util.hpp"
#include "common/status.hpp"
#include "geometry/generators.hpp"
#include "partition/coverage.hpp"

namespace mpte {
namespace {

TEST(BallGrids, ValidatesArguments) {
  EXPECT_THROW(BallGrids(0, 1.0, 1, 1), MpteError);
  EXPECT_THROW(BallGrids(2, 0.0, 1, 1), MpteError);
  EXPECT_THROW(BallGrids(2, 1.0, 0, 1), MpteError);
  // Past the grid-set size limits: thrown before the shift table is
  // allocated.
  EXPECT_THROW(BallGrids(16, 1.0, 1'000'000'000'000'000, 1), MpteError);
  EXPECT_THROW(BallGrids(1, 1.0, kMaxGridsPerSet + 1, 1), MpteError);
}

TEST(BallGrids, ShiftsInCellRange) {
  const BallGrids grids(3, 2.5, 50, 7);
  EXPECT_EQ(grids.cell_width(), 10.0);
  for (std::size_t u = 0; u < 50; ++u) {
    for (std::size_t t = 0; t < 3; ++t) {
      const double s = grids.shift(u, t);
      EXPECT_GE(s, 0.0);
      EXPECT_LT(s, 10.0);
      EXPECT_EQ(s, grids.shift(u, t));  // deterministic
    }
  }
}

TEST(BallGrids, DifferentSeedsDifferentShifts) {
  const BallGrids a(2, 1.0, 4, 1);
  const BallGrids b(2, 1.0, 4, 2);
  EXPECT_NE(a.shift(0, 0), b.shift(0, 0));
}

TEST(BallGrids, AssignDimensionMismatchThrows) {
  const BallGrids grids(3, 1.0, 4, 1);
  const std::vector<double> p{1.0, 2.0};
  EXPECT_THROW((void)grids.assign(p), MpteError);
}

TEST(BallGrids, AssignBatchEqualsAssign) {
  // Strided rows (a bucket read in place out of wider points), blocks
  // longer than the batch's internal 256-point chunk, the specialised and
  // generic dims, and enough starved grid sets that some points stay
  // uncovered.
  for (std::size_t k = 1; k <= 5; ++k) {
    for (const std::size_t num_grids : {1u, 7u, 300u}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " grids=" + std::to_string(num_grids));
      const BallGrids grids(k, 1.5, num_grids, 11 + k);
      const std::size_t stride = 2 * k + 1;
      const PointSet rows = generate_uniform_cube(601, stride, 40.0, k);
      std::vector<std::uint64_t> batch(rows.size());
      grids.assign_batch(rows.raw(), stride, batch);
      std::size_t uncovered = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto p = rows[i].subspan(0, k);
        EXPECT_EQ(batch[i], grids.assign(p)) << "point " << i;
        uncovered += batch[i] == kUncovered ? 1 : 0;
      }
      if (num_grids == 1) {
        EXPECT_GT(uncovered, 0u);
      }
    }
  }
}

TEST(BallGrids, AssignBatchChecksItsBlock) {
  const BallGrids grids(3, 1.0, 4, 1);
  const std::vector<double> rows(3 * 4 + 2, 1.0);
  std::vector<std::uint64_t> out(5);
  // Five rows of stride 3 need 15 coordinates; 14 are given.
  EXPECT_THROW(grids.assign_batch(rows, 3, out), MpteError);
  // A stride shorter than the grid dimension.
  EXPECT_THROW(grids.assign_batch(rows, 2, std::span(out).first(2)),
               MpteError);
  // An empty block touches nothing; four rows fit.
  grids.assign_batch({}, 3, {});
  grids.assign_batch(rows, 3, std::span(out).first(4));
  EXPECT_EQ(out[0], grids.assign(std::span(rows).first(3)));
}

TEST(BallGrids, AssignedPointsAreWithinRadiusOfSomeCenter) {
  // Reconstruct the covering ball from the id semantics: re-scan grids and
  // confirm the first covering grid is within radius.
  const BallGrids grids(2, 1.0, 200, 5);
  const PointSet points = generate_uniform_cube(100, 2, 20.0, 3);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto p = points[i];
    const std::uint64_t id = grids.assign(p);
    if (id == kUncovered) continue;
    bool found = false;
    for (std::size_t u = 0; u < grids.num_grids() && !found; ++u) {
      double dist_sq = 0.0;
      for (std::size_t t = 0; t < 2; ++t) {
        const double s = grids.shift(u, t);
        const double z = std::round((p[t] - s) / grids.cell_width());
        const double diff = p[t] - (z * grids.cell_width() + s);
        dist_sq += diff * diff;
      }
      if (dist_sq <= grids.radius() * grids.radius()) found = true;
    }
    EXPECT_TRUE(found) << "point " << i;
  }
}

TEST(BallPartition, SamePartitionImpliesClose) {
  // Two points sharing a ball are within 2w of each other.
  const double w = 1.5;
  const BallGrids grids(3, w, 500, 11);
  const PointSet points = generate_uniform_cube(200, 3, 10.0, 13);
  const BallPartitionResult result = ball_partition(points, grids);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (result.ball_of_point[i] == kUncovered) continue;
      if (result.ball_of_point[i] == result.ball_of_point[j]) {
        EXPECT_LE(l2_distance(points[i], points[j]), 2.0 * w + 1e-9);
      }
    }
  }
}

TEST(BallPartition, CoversAllWithRecommendedGrids) {
  const std::size_t n = 300, k = 2;
  const std::size_t u = recommended_num_grids(k, n, 1, 1, 1e-6);
  const BallGrids grids(k, 2.0, u, 17);
  const PointSet points = generate_uniform_cube(n, k, 50.0, 19);
  const BallPartitionResult result = ball_partition(points, grids);
  EXPECT_EQ(result.uncovered, 0u);
}

TEST(BallPartition, UncoveredReportedWhenTooFewGrids) {
  // A single grid covers only ~pi/16 of the plane; most of 500 points miss.
  const BallGrids grids(2, 1.0, 1, 23);
  const PointSet points = generate_uniform_cube(500, 2, 100.0, 29);
  const BallPartitionResult result = ball_partition(points, grids);
  EXPECT_GT(result.uncovered, 200u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Uncovered sentinel is consistent with the count.
    if (result.ball_of_point[i] == kUncovered) continue;
  }
}

TEST(BallPartition, CoverRateMatchesGeometry) {
  // Single grid: the covered fraction should approximate p_k = V_k/4^k.
  const std::size_t k = 2;
  const std::size_t n = 4000;
  const BallGrids grids(k, 1.0, 1, 31);
  const PointSet points = generate_uniform_cube(n, k, 64.0, 37);
  const BallPartitionResult result = ball_partition(points, grids);
  const double covered_fraction =
      1.0 - static_cast<double>(result.uncovered) / static_cast<double>(n);
  EXPECT_NEAR(covered_fraction, ball_grid_cover_probability(k), 0.03);
}

TEST(BallPartition, ScanCountGeometric) {
  // Expected grids scanned per point is ~1/p_k (stopping at first cover).
  const std::size_t k = 2, n = 2000;
  const std::size_t u = recommended_num_grids(k, n, 1, 1, 1e-9);
  const BallGrids grids(k, 1.0, u, 41);
  const PointSet points = generate_uniform_cube(n, k, 32.0, 43);
  const BallPartitionResult result = ball_partition(points, grids);
  const double mean_scans = static_cast<double>(result.total_grids_scanned) /
                            static_cast<double>(n);
  const double expected = 1.0 / ball_grid_cover_probability(k);
  EXPECT_NEAR(mean_scans, expected, expected * 0.2);
}

TEST(BallPartition, DeterministicAssignment) {
  const BallGrids grids(3, 1.0, 100, 47);
  const PointSet points = generate_uniform_cube(50, 3, 10.0, 53);
  const auto a = ball_partition(points, grids);
  const auto b = ball_partition(points, grids);
  EXPECT_EQ(a.ball_of_point, b.ball_of_point);
}

TEST(BallPartition, BallsWithinGridDoNotOverlap) {
  // Points covered by the same grid index u but different cells get
  // different ids; verify via a deterministic 1-d configuration where we
  // know the cells: radius 1, cell 4.
  const BallGrids grids(1, 1.0, 1, 59);
  const double s = grids.shift(0, 0);
  // Place two points at consecutive lattice centers.
  PointSet points(2, 1, {s + 0.0, s + 4.0});
  const auto result = ball_partition(points, grids);
  EXPECT_EQ(result.uncovered, 0u);
  EXPECT_NE(result.ball_of_point[0], result.ball_of_point[1]);
}

}  // namespace
}  // namespace mpte
