#include "tree/distortion.hpp"

#include <gtest/gtest.h>

#include <set>

#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"
#include "plan_hierarchy.hpp"
#include "tree/embedding_builder.hpp"

namespace mpte {
namespace {

TEST(SamplePairs, AllPairsWhenSmall) {
  const auto pairs = sample_pairs(5, 100, 1);
  EXPECT_EQ(pairs.size(), 10u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> unique(pairs.begin(),
                                                           pairs.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto& [i, j] : pairs) EXPECT_LT(i, j);
}

TEST(SamplePairs, SamplesWhenLarge) {
  const auto pairs = sample_pairs(1000, 50, 2);
  EXPECT_EQ(pairs.size(), 50u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> unique(pairs.begin(),
                                                           pairs.end());
  EXPECT_EQ(unique.size(), 50u);
  for (const auto& [i, j] : pairs) {
    EXPECT_LT(i, j);
    EXPECT_LT(j, 1000u);
  }
}

TEST(SamplePairs, EdgeCases) {
  EXPECT_TRUE(sample_pairs(0, 10, 1).empty());
  EXPECT_TRUE(sample_pairs(1, 10, 1).empty());
  EXPECT_EQ(sample_pairs(2, 10, 1).size(), 1u);
}

class DistortionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const PointSet raw = generate_uniform_cube(80, 4, 50.0, 3);
    points_ = quantize_to_grid(raw, 256).points;
  }

  Hst make_tree(std::uint64_t seed) const {
    PartitionOptions options;
    options.num_buckets = 2;
    const auto h =
        plan_and_build(points_, PartitionMethod::kHybrid, 256, seed, options);
    EXPECT_TRUE(h.ok());
    return build_hst(*h);
  }

  PointSet points_;
};

TEST_F(DistortionFixture, DominationHolds) {
  const Hst tree = make_tree(1);
  const auto stats = measure_distortion(tree, points_, 10000, 5);
  EXPECT_GE(stats.min_ratio, 1.0) << "domination violated";
  EXPECT_GE(stats.max_ratio, stats.mean_ratio);
  EXPECT_GE(stats.mean_ratio, stats.min_ratio);
  EXPECT_EQ(stats.pairs, 80u * 79u / 2u);
}

TEST_F(DistortionFixture, MismatchedSizesThrow) {
  const Hst tree = make_tree(1);
  const PointSet other = generate_uniform_cube(10, 4, 1.0, 1);
  EXPECT_THROW((void)measure_distortion(tree, other, 10, 1), MpteError);
}

TEST_F(DistortionFixture, ExpectedDistortionAveragesTrees) {
  std::vector<Hst> trees;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    trees.push_back(make_tree(seed));
  }
  const auto ensemble =
      measure_expected_distortion(trees, points_, 2000, 7);
  EXPECT_EQ(ensemble.trees, 8u);
  EXPECT_GE(ensemble.min_single_ratio, 1.0);
  EXPECT_GE(ensemble.max_expected_ratio, ensemble.mean_expected_ratio);

  // Averaging cannot exceed the worst single tree's max ratio.
  double worst_single = 0.0;
  for (const Hst& tree : trees) {
    worst_single = std::max(
        worst_single,
        measure_distortion(tree, points_, 2000, 7).max_ratio);
  }
  EXPECT_LE(ensemble.max_expected_ratio, worst_single + 1e-9);
}

TEST_F(DistortionFixture, NoTreesThrows) {
  EXPECT_THROW((void)measure_expected_distortion({}, points_, 10, 1),
               MpteError);
}

TEST(Distortion, SkipsZeroDistancePairs) {
  // Two identical points plus one distinct.
  PointSet points(3, 2, {5, 5, 5, 5, 40, 40});
  const Quantized q = quantize_to_grid(points, 64);
  PartitionOptions options;
  options.num_buckets = 1;
  const auto h =
      plan_and_build(q.points, PartitionMethod::kHybrid, 64, 3, options);
  ASSERT_TRUE(h.ok());
  const Hst tree = build_hst(*h);
  const auto stats = measure_distortion(tree, q.points, 100, 1);
  EXPECT_EQ(stats.pairs, 2u);  // pair (0,1) skipped
  EXPECT_GE(stats.min_ratio, 1.0);
}

}  // namespace
}  // namespace mpte
