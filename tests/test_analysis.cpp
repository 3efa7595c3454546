#include "partition/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"
#include "plan_hierarchy.hpp"

namespace mpte {
namespace {

Hierarchy sample_hierarchy(std::size_t n, std::uint64_t seed) {
  const PointSet raw = generate_uniform_cube(n, 3, 50.0, seed);
  const Quantized q = quantize_to_grid(raw, 256);
  PartitionOptions options;
  options.num_buckets = 3;
  auto result =
      plan_and_build(q.points, PartitionMethod::kHybrid, 256, seed, options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(Analysis, RootLevelIsOneCluster) {
  const Hierarchy h = sample_hierarchy(60, 1);
  const auto stats = analyze_hierarchy(h);
  ASSERT_EQ(stats.size(), h.levels());
  EXPECT_EQ(stats[0].clusters, 1u);
  EXPECT_EQ(stats[0].largest, 60u);
  EXPECT_EQ(stats[0].singletons, 0u);
  EXPECT_EQ(stats[0].entropy, 0.0);
}

TEST(Analysis, RefinementIsMonotone) {
  const Hierarchy h = sample_hierarchy(80, 3);
  const auto stats = analyze_hierarchy(h);
  for (std::size_t level = 1; level < stats.size(); ++level) {
    // Laminar refinement: cluster counts never decrease, largest never
    // grows, entropy never falls.
    EXPECT_GE(stats[level].clusters, stats[level - 1].clusters);
    EXPECT_LE(stats[level].largest, stats[level - 1].largest);
    EXPECT_GE(stats[level].entropy, stats[level - 1].entropy - 1e-12);
    EXPECT_EQ(stats[level].scale, h.scales[level]);
  }
}

TEST(Analysis, BottomLevelShattersDistinctPoints) {
  const Hierarchy h = sample_hierarchy(50, 5);
  const auto stats = analyze_hierarchy(h);
  const LevelStats& last = stats.back();
  EXPECT_EQ(last.clusters, 50u);
  EXPECT_EQ(last.largest, 1u);
  EXPECT_EQ(last.singletons, 50u);
  EXPECT_NEAR(last.entropy, std::log(50.0), 1e-9);
  EXPECT_LE(full_shatter_level(h), h.levels() - 1);
}

TEST(Analysis, ShatterLevelDetectsDuplicates) {
  // Duplicates never separate: full shatter never happens.
  PointSet raw(4, 2, {1, 1, 1, 1, 200, 200, 220, 230});
  const Quantized q = quantize_to_grid(raw, 128);
  PartitionOptions options;
  options.num_buckets = 1;
  const auto h =
      plan_and_build(q.points, PartitionMethod::kHybrid, 128, 7, options);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(full_shatter_level(*h), h->levels());
}

TEST(Analysis, ReportMentionsEveryLevel) {
  const Hierarchy h = sample_hierarchy(20, 9);
  const std::string report = hierarchy_report(h);
  EXPECT_NE(report.find("clusters"), std::string::npos);
  // One line per level plus the header.
  std::size_t lines = 0;
  for (const char c : report) lines += (c == '\n');
  EXPECT_EQ(lines, h.levels() + 1);
}

}  // namespace
}  // namespace mpte
