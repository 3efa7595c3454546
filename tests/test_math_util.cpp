#include "common/math_util.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace mpte {
namespace {

TEST(MathUtil, PowerOfTwoPredicates) {
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_TRUE(is_power_of_two(1ull << 40));
  EXPECT_FALSE(is_power_of_two((1ull << 40) + 1));
}

TEST(MathUtil, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(0), 1u);
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1025), 2048u);
}

TEST(MathUtil, Logs) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(MathUtil, UnitBallVolumeKnownValues) {
  EXPECT_NEAR(unit_ball_volume(1), 2.0, 1e-12);
  EXPECT_NEAR(unit_ball_volume(2), std::numbers::pi, 1e-12);
  EXPECT_NEAR(unit_ball_volume(3), 4.0 / 3.0 * std::numbers::pi, 1e-12);
  EXPECT_NEAR(unit_ball_volume(4), std::numbers::pi * std::numbers::pi / 2.0,
              1e-12);
}

TEST(MathUtil, UnitBallVolumeShrinksInHighDim) {
  // V_k peaks at k=5 and decays super-exponentially after.
  EXPECT_GT(unit_ball_volume(5), unit_ball_volume(12));
  EXPECT_LT(unit_ball_volume(30), 1e-4);
}

TEST(MathUtil, CoverProbabilityMatchesDefinition) {
  EXPECT_NEAR(ball_grid_cover_probability(1), 0.5, 1e-12);
  EXPECT_NEAR(ball_grid_cover_probability(2), std::numbers::pi / 16.0,
              1e-12);
  for (unsigned k = 1; k <= 16; ++k) {
    const double p = ball_grid_cover_probability(k);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 0.5);
  }
}

}  // namespace
}  // namespace mpte
