#include "geometry/bounding_box.hpp"

#include <gtest/gtest.h>

#include "common/status.hpp"
#include "geometry/generators.hpp"

namespace mpte {
namespace {

TEST(BoundingBox, OfComputesTightBounds) {
  PointSet points(3, 2, {0, 5, 2, -1, 1, 3});
  const BoundingBox box = BoundingBox::of(points);
  EXPECT_EQ(box.lo(), (std::vector<double>{0, -1}));
  EXPECT_EQ(box.hi(), (std::vector<double>{2, 5}));
  EXPECT_EQ(box.width(), 6.0);
}

TEST(BoundingBox, EmptySetThrows) {
  EXPECT_THROW(BoundingBox::of(PointSet{}), MpteError);
}

TEST(BoundingBox, MismatchedLoHiThrows) {
  EXPECT_THROW(BoundingBox({0.0}, {1.0, 2.0}), MpteError);
  EXPECT_THROW(BoundingBox({2.0}, {1.0}), MpteError);
}

TEST(BoundingBox, ContainsAllGeneratedPoints) {
  const PointSet points = generate_uniform_cube(200, 5, 10.0, 42);
  const BoundingBox box = BoundingBox::of(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.dim(); ++j) {
      EXPECT_LE(box.lo()[j], points.coord(i, j));
      EXPECT_GE(box.hi()[j], points.coord(i, j));
    }
  }
  EXPECT_LE(box.width(), 10.0);
}

TEST(BoundingBox, DegeneratePointBox) {
  PointSet points(1, 3, {1.0, 2.0, 3.0});
  const BoundingBox box = BoundingBox::of(points);
  EXPECT_EQ(box.width(), 0.0);
  EXPECT_EQ(box.lo(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(box.hi(), box.lo());
}

}  // namespace
}  // namespace mpte
