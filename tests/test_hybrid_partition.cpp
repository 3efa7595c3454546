#include "partition/hybrid_partition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"
#include "plan_hierarchy.hpp"
#include <string>

namespace mpte {
namespace {

PointSet quantized_cube(std::size_t n, std::size_t dim, std::uint64_t delta,
                        std::uint64_t seed) {
  const PointSet raw = generate_uniform_cube(n, dim, 100.0, seed);
  return quantize_to_grid(raw, delta).points;
}

TEST(ScaleLadder, HalvesAndTerminates) {
  const ScaleLadder ladder = hybrid_scale_ladder(8, 4, 256);
  EXPECT_NEAR(ladder.w_max, 256.0 * std::sqrt(8.0), 1e-9);
  ASSERT_EQ(ladder.scales.size(), ladder.levels + 1);
  ASSERT_EQ(ladder.edge_weight.size(), ladder.levels + 1);
  for (std::size_t i = 1; i <= ladder.levels; ++i) {
    EXPECT_NEAR(ladder.scales[i], ladder.scales[i - 1] / 2.0, 1e-9);
    EXPECT_NEAR(ladder.edge_weight[i], 2.0 * std::sqrt(4.0) * ladder.scales[i],
                1e-9);
  }
  // Terminal diameter bound below the minimum integer distance.
  EXPECT_LT(2.0 * std::sqrt(4.0) * ladder.scales[ladder.levels], 1.0);
  // And one level less would not have been enough.
  EXPECT_GE(2.0 * std::sqrt(4.0) * ladder.scales[ladder.levels - 1], 1.0);
}

TEST(ScaleLadder, LevelCountLogarithmicInDelta) {
  const std::size_t l1 = hybrid_scale_ladder(8, 2, 1 << 8).levels;
  const std::size_t l2 = hybrid_scale_ladder(8, 2, 1 << 16).levels;
  EXPECT_EQ(l2 - l1, 8u);
}

TEST(HybridHierarchy, StructureInvariants) {
  const PointSet points = quantized_cube(60, 4, 128, 2);
  PartitionOptions options;
  options.num_buckets = 2;
  const auto h =
      plan_and_build(points, PartitionMethod::kHybrid, 128, 3, options);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_points(), 60u);
  EXPECT_EQ(h->num_buckets, 2u);
  EXPECT_GT(h->num_grids, 0u);
  ASSERT_EQ(h->cluster_of_point.size(), h->scales.size());
  ASSERT_EQ(h->edge_weight.size(), h->scales.size());

  // Level 0: everyone in the root cluster.
  const auto root = h->cluster_of_point[0][0];
  for (const auto id : h->cluster_of_point[0]) EXPECT_EQ(id, root);

  // Laminarity: same cluster at level i implies same at level i-1.
  for (std::size_t level = 1; level < h->levels(); ++level) {
    std::unordered_map<std::uint64_t, std::uint64_t> parent_of;
    for (std::size_t i = 0; i < 60; ++i) {
      const auto child = h->cluster_of_point[level][i];
      const auto parent = h->cluster_of_point[level - 1][i];
      const auto [it, inserted] = parent_of.emplace(child, parent);
      EXPECT_EQ(it->second, parent) << "level " << level;
      (void)inserted;
    }
  }
}

TEST(HybridHierarchy, DiameterBoundHolds) {
  // Lemma 1 second half: same partition at scale w => distance <= 2 sqrt(r) w.
  const PointSet points = quantized_cube(80, 4, 128, 5);
  for (const std::uint32_t r : {1u, 2u, 4u}) {
    PartitionOptions options;
    options.num_buckets = r;
    const auto h =
        plan_and_build(points, PartitionMethod::kHybrid, 128, 7 + r, options);
    ASSERT_TRUE(h.ok()) << "r=" << r;
    const double bound_factor = 2.0 * std::sqrt(static_cast<double>(r));
    for (std::size_t level = 1; level < h->levels(); ++level) {
      const double bound = bound_factor * h->scales[level] + 1e-9;
      for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j) {
          if (h->cluster_of_point[level][i] ==
              h->cluster_of_point[level][j]) {
            EXPECT_LE(l2_distance(points[i], points[j]), bound)
                << "r=" << r << " level=" << level;
          }
        }
      }
    }
  }
}

TEST(HybridHierarchy, EndsInSingletonsForDistinctPoints) {
  const PointSet points = quantized_cube(50, 3, 64, 11);
  PartitionOptions options;
  options.num_buckets = 3;
  const auto h =
      plan_and_build(points, PartitionMethod::kHybrid, 64, 13, options);
  ASSERT_TRUE(h.ok());
  // Points with distinct coordinates end in distinct clusters at the last
  // level (diameter bound < 1 <= min distance).
  const auto& last = h->cluster_of_point.back();
  std::unordered_map<std::uint64_t, std::size_t> count;
  for (const auto id : last) ++count[id];
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (l2_distance(points[i], points[j]) > 0.0) {
        EXPECT_NE(last[i], last[j]);
      } else {
        EXPECT_EQ(last[i], last[j]);
      }
    }
  }
}

TEST(HybridHierarchy, CoverageFailureReported) {
  const PointSet points = quantized_cube(200, 4, 128, 17);
  PartitionOptions options;
  options.num_buckets = 1;  // 4-dim buckets, tiny cover probability
  options.num_grids = 1;    // force failure
  options.uncovered = UncoveredPolicy::kFail;
  const auto h =
      plan_and_build(points, PartitionMethod::kHybrid, 128, 0, options);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kCoverageFailure);
}

TEST(HybridHierarchy, SingletonPolicyKeepsGoing) {
  const PointSet points = quantized_cube(100, 4, 128, 19);
  PartitionOptions options;
  options.num_buckets = 1;
  options.num_grids = 2;  // will miss many points
  options.uncovered = UncoveredPolicy::kSingleton;
  const auto h =
      plan_and_build(points, PartitionMethod::kHybrid, 128, 0, options);
  ASSERT_TRUE(h.ok());
  EXPECT_GT(h->uncovered_events, 0u);
}

TEST(HybridHierarchy, DeterministicBySeed) {
  const PointSet points = quantized_cube(40, 4, 64, 23);
  PartitionOptions options;
  options.num_buckets = 2;
  const auto a =
      plan_and_build(points, PartitionMethod::kHybrid, 64, 99, options);
  const auto b =
      plan_and_build(points, PartitionMethod::kHybrid, 64, 99, options);
  const auto c =
      plan_and_build(points, PartitionMethod::kHybrid, 64, 100, options);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->cluster_of_point, b->cluster_of_point);
  EXPECT_NE(a->cluster_of_point, c->cluster_of_point);
}

TEST(HybridHierarchy, PadsNonDivisibleDimensions) {
  // dim 5 with r = 2: bucket_dim 3, padded to 6; must still work.
  const PointSet points = quantized_cube(30, 5, 64, 29);
  PartitionOptions options;
  options.num_buckets = 2;
  const auto h =
      plan_and_build(points, PartitionMethod::kHybrid, 64, 0, options);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_points(), 30u);
}

TEST(GridHierarchy, StructureAndSingletons) {
  const PointSet points = quantized_cube(60, 3, 128, 31);
  const auto h = build_grid_hierarchy(points, 128, 37);
  ASSERT_TRUE(h.ok());
  // Laminar and ends in singletons.
  const auto& last = h->cluster_of_point.back();
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (l2_distance(points[i], points[j]) > 0.0) {
        EXPECT_NE(last[i], last[j]);
      }
    }
  }
  // Cell diameter bound per level.
  const double sqrt_d = std::sqrt(3.0);
  for (std::size_t level = 1; level < h->levels(); ++level) {
    const double bound = sqrt_d * h->scales[level] + 1e-9;
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = i + 1; j < points.size(); ++j) {
        if (h->cluster_of_point[level][i] == h->cluster_of_point[level][j]) {
          EXPECT_LE(l2_distance(points[i], points[j]), bound);
        }
      }
    }
  }
}

TEST(BallHierarchy, IsHybridWithOneBucket) {
  const PointSet points = quantized_cube(30, 3, 64, 41);
  PartitionOptions options;
  options.num_buckets = 7;  // the ball plan ignores it
  const auto ball =
      plan_and_build(points, PartitionMethod::kBall, 64, 43, options);
  options.num_buckets = 1;
  const auto hybrid =
      plan_and_build(points, PartitionMethod::kHybrid, 64, 43, options);
  ASSERT_TRUE(ball.ok() && hybrid.ok());
  EXPECT_EQ(ball->cluster_of_point, hybrid->cluster_of_point);
}

TEST(HybridHierarchy, InfeasibleGridCountIsAStatus) {
  // Pure ball partitioning at d = 12 and 16 asks for more grids than one
  // grid set can hold; the plan says so before any grid set is built.
  for (const std::size_t d : {12u, 16u}) {
    const PointSet points = quantized_cube(50, d, 64, 3);
    const auto result = plan_and_build(points, PartitionMethod::kBall, 64, 5);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("k = " + std::to_string(d)),
              std::string::npos)
        << result.status().to_string();
  }
}

}  // namespace
}  // namespace mpte
