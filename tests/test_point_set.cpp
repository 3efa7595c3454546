#include "geometry/point_set.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/status.hpp"

namespace mpte {
namespace {

PointSet make_triangle() {
  // (0,0), (3,0), (0,4): distances 3, 4, 5.
  return PointSet(3, 2, {0, 0, 3, 0, 0, 4});
}

TEST(PointSet, ConstructionAndAccess) {
  PointSet points(2, 3);
  EXPECT_EQ(points.size(), 2u);
  EXPECT_EQ(points.dim(), 3u);
  points.coord(1, 2) = 7.5;
  EXPECT_EQ(points[1][2], 7.5);
  EXPECT_EQ(points.coord(0, 0), 0.0);
}

TEST(PointSet, AdoptBufferValidatesSize) {
  EXPECT_THROW(PointSet(2, 3, {1.0, 2.0}), MpteError);
  // 60 * 2^62 wraps to 0, the size of the empty buffer.
  EXPECT_THROW(PointSet(60, std::size_t{1} << 62, {}), MpteError);
}

TEST(PointSet, PushBackGrowsAndChecksDim) {
  PointSet points;
  const double a[] = {1.0, 2.0};
  points.push_back(a);
  EXPECT_EQ(points.size(), 1u);
  EXPECT_EQ(points.dim(), 2u);
  const double bad[] = {1.0, 2.0, 3.0};
  EXPECT_THROW(points.push_back(bad), MpteError);
}

TEST(PointSet, SelectPreservesOrder) {
  const PointSet points = make_triangle();
  const std::size_t idx[] = {2, 0};
  const PointSet sub = points.select(idx);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0][1], 4.0);
  EXPECT_EQ(sub[1][0], 0.0);
}

TEST(PointSet, ProjectSlicesCoordinates) {
  PointSet points(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  const PointSet mid = points.project(1, 3);
  ASSERT_EQ(mid.dim(), 2u);
  EXPECT_EQ(mid[0][0], 2.0);
  EXPECT_EQ(mid[0][1], 3.0);
  EXPECT_EQ(mid[1][0], 6.0);
}

TEST(PointSet, ProjectEmptyRange) {
  PointSet points(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  const PointSet none = points.project(2, 2);
  EXPECT_EQ(none.dim(), 0u);
  EXPECT_EQ(none.size(), 2u);
}

TEST(PointSet, PadDimsAppendsZeros) {
  const PointSet points = make_triangle();
  const PointSet padded = points.pad_dims(5);
  ASSERT_EQ(padded.dim(), 5u);
  EXPECT_EQ(padded[1][0], 3.0);
  EXPECT_EQ(padded[1][2], 0.0);
  EXPECT_EQ(padded[1][4], 0.0);
  // Distances unchanged by zero padding.
  EXPECT_NEAR(l2_distance(padded[0], padded[1]),
              l2_distance(points[0], points[1]), 1e-12);
}

TEST(Distance, KnownValues) {
  const PointSet t = make_triangle();
  EXPECT_NEAR(l2_distance(t[0], t[1]), 3.0, 1e-12);
  EXPECT_NEAR(l2_distance(t[0], t[2]), 4.0, 1e-12);
  EXPECT_NEAR(l2_distance(t[1], t[2]), 5.0, 1e-12);
  EXPECT_NEAR(l2_distance_squared(t[1], t[2]), 25.0, 1e-12);
}

TEST(Distance, NormAndSymmetry) {
  const PointSet t = make_triangle();
  EXPECT_EQ(l2_distance(t[0], t[1]), l2_distance(t[1], t[0]));
  EXPECT_EQ(l2_distance(t[1], t[1]), 0.0);
}

TEST(Extremes, TriangleMinMax) {
  const auto ext = pairwise_distance_extremes(make_triangle());
  EXPECT_NEAR(ext.min, 3.0, 1e-12);
  EXPECT_NEAR(ext.max, 5.0, 1e-12);
}

TEST(Extremes, DegenerateCases) {
  PointSet one(1, 2, {0, 0});
  const auto ext = pairwise_distance_extremes(one);
  EXPECT_EQ(ext.min, 0.0);
  EXPECT_EQ(ext.max, 0.0);
}

}  // namespace
}  // namespace mpte
