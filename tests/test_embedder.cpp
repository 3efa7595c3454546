#include "core/embedder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/parallel.hpp"
#include "geometry/generators.hpp"
#include "golden.hpp"
#include "plan_hierarchy.hpp"
#include "tree/distortion.hpp"
#include "tree/embedding_builder.hpp"

namespace mpte {
namespace {

TEST(Embedder, RejectsTooFewPoints) {
  const PointSet one = generate_uniform_cube(1, 3, 1.0, 1);
  EXPECT_FALSE(embed(one, EmbedOptions{}).ok());
}

TEST(Embedder, DeltaOfOneIsInvalidArgument) {
  const PointSet points = generate_uniform_cube(20, 3, 10.0, 2);
  EmbedOptions options;
  options.delta = 1;
  const auto result = embed(points, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Embedder, NegativeMaxRetriesIsInvalidArgument) {
  const PointSet points = generate_uniform_cube(20, 3, 10.0, 3);
  EmbedOptions options;
  options.max_retries = -1;
  const auto result = embed(points, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Embedder, BucketsAboveDimensionAreClamped) {
  const PointSet points = generate_uniform_cube(30, 4, 10.0, 4);
  EmbedOptions options;
  options.num_buckets = 9;
  options.delta = 256;
  const auto clamped = embed(points, options);
  ASSERT_TRUE(clamped.ok()) << clamped.status().to_string();
  EXPECT_EQ(clamped->buckets_used, 4u);
  options.num_buckets = 4;
  const auto exact = embed(points, options);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(golden::fingerprint(*clamped), golden::fingerprint(*exact));
}

TEST(Embedder, AutoBucketsCapBucketDimension) {
  // The auto choice must never leave bucket dims above the cap (U would
  // explode as 2^{k log k}).
  for (const std::size_t dim : {4u, 16u, 52u, 133u}) {
    const std::uint32_t r = auto_num_buckets(1024, dim, 3);
    EXPECT_LE((dim + r - 1) / r, 3u) << "dim=" << dim;
    EXPECT_LE(r, dim);
  }
  // And it still respects the Theta(log log n) floor for small dims.
  EXPECT_GE(auto_num_buckets(1u << 20, 16, 16),
            theorem1_num_buckets(1u << 20, 16));
}

TEST(Embedder, Theorem1BucketsGrowDoublyLogarithmically) {
  const auto r1 = theorem1_num_buckets(1u << 10, 1000);
  const auto r2 = theorem1_num_buckets(1u << 20, 1000);
  EXPECT_GE(r2, r1);
  EXPECT_LE(r2, r1 + 2);  // log log grows very slowly
  EXPECT_EQ(theorem1_num_buckets(1u << 20, 2), 2u);  // clamped to dim
  EXPECT_GE(theorem1_num_buckets(4, 10), 1u);
}

class EmbedderMethodTest
    : public ::testing::TestWithParam<PartitionMethod> {};

TEST_P(EmbedderMethodTest, ProducesValidDominatingTree) {
  const PointSet points = generate_uniform_cube(100, 6, 30.0, 5);
  EmbedOptions options;
  options.method = GetParam();
  options.seed = 7;
  options.use_fjlt = false;
  const auto result = embed(points, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->tree.validate().ok());
  EXPECT_EQ(result->tree.num_points(), 100u);

  // Domination wrt the embedded (quantized) points — an exact property.
  const auto stats =
      measure_distortion(result->tree, result->embedded_points, 5000, 1);
  EXPECT_GE(stats.min_ratio, 1.0)
      << "method " << method_name(GetParam());
}

TEST_P(EmbedderMethodTest, ApproximatesInputDistances) {
  const PointSet points = generate_uniform_cube(60, 5, 30.0, 11);
  EmbedOptions options;
  options.method = GetParam();
  options.seed = 13;
  options.use_fjlt = false;
  options.quantize_eps = 0.05;
  const auto result = embed(points, options);
  ASSERT_TRUE(result.ok());
  // Tree distance in input units dominates (1 - eps) * true distance and
  // stays below a generous distortion ceiling.
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = i + 1; j < 20; ++j) {
      const double true_dist = l2_distance(points[i], points[j]);
      const double tree_dist = result->distance(i, j);
      EXPECT_GE(tree_dist, (1.0 - 0.06) * true_dist);
      EXPECT_LE(tree_dist, 2000.0 * true_dist);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, EmbedderMethodTest,
                         ::testing::Values(PartitionMethod::kGrid,
                                           PartitionMethod::kBall,
                                           PartitionMethod::kHybrid));

TEST(Embedder, FjltKicksInForHighDimensions) {
  const PointSet points = generate_uniform_cube(64, 400, 10.0, 17);
  EmbedOptions options;
  options.use_fjlt = true;
  options.fjlt_xi = 0.4;
  options.seed = 19;
  const auto result = embed(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->fjlt_applied);
  EXPECT_LT(result->dim_used, 400u);
  EXPECT_TRUE(result->tree.validate().ok());
}

TEST(Embedder, FjltSkippedForLowDimensions) {
  const PointSet points = generate_uniform_cube(64, 4, 10.0, 23);
  EmbedOptions options;
  options.use_fjlt = true;
  options.seed = 29;
  const auto result = embed(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->fjlt_applied);
  EXPECT_EQ(result->dim_used, 4u);
}

TEST(Embedder, ExplicitParametersRespected) {
  const PointSet points = generate_uniform_cube(50, 6, 10.0, 31);
  EmbedOptions options;
  options.method = PartitionMethod::kHybrid;
  options.num_buckets = 3;
  options.delta = 512;
  options.num_grids = 400;
  options.use_fjlt = false;
  options.seed = 37;
  const auto result = embed(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->buckets_used, 3u);
  EXPECT_EQ(result->delta_used, 512u);
  EXPECT_EQ(result->grids_used, 400u);
}

TEST(Embedder, RetriesOnCoverageFailure) {
  // Starve the grid count so early seeds likely fail; retries must either
  // succeed eventually or report kCoverageFailure (never crash).
  const PointSet points = generate_uniform_cube(150, 6, 10.0, 41);
  EmbedOptions options;
  options.method = PartitionMethod::kBall;  // 6-dim bucket: poor coverage
  options.num_grids = 3;
  options.use_fjlt = false;
  options.max_retries = 2;
  options.seed = 43;
  const auto result = embed(points, options);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCoverageFailure);
  } else {
    EXPECT_GE(result->retries_used, 0);
  }
}

TEST(Embedder, DeterministicForSeed) {
  const PointSet points = generate_uniform_cube(40, 5, 10.0, 47);
  EmbedOptions options;
  options.seed = 53;
  options.use_fjlt = false;
  const auto a = embed(points, options);
  const auto b = embed(points, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->tree.num_points(), b->tree.num_points());
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = i + 1; j < 40; ++j) {
      EXPECT_EQ(a->tree.distance(i, j), b->tree.distance(i, j));
    }
  }
}

TEST(Embedder, SingletonPolicySurvivesStarvedGrids) {
  const PointSet points = generate_uniform_cube(80, 6, 10.0, 59);
  EmbedOptions options;
  options.method = PartitionMethod::kBall;
  options.num_grids = 2;
  options.uncovered = UncoveredPolicy::kSingleton;
  options.use_fjlt = false;
  options.seed = 61;
  const auto result = embed(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tree.validate().ok());
}

TEST(Embedder, AutoDeltaGoldenFingerprintPinned) {
  for (const std::size_t threads : {1, 8}) {
    par::set_default_threads(threads);
    const auto result = embed(golden::golden_points(),
                              golden::auto_delta_embed_options());
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->delta_used, golden::kAutoDelta);
    EXPECT_EQ(golden::fingerprint(*result), golden::kAutoDeltaMpcHash)
        << "threads " << threads;
  }
  par::set_default_threads(0);
}

TEST(Embedder, ReproducesTheMpcGoldenPins) {
  // One tree assembly: on the pinned configurations the sequential
  // pipeline builds mpc_embed's bytes.
  const auto golden = embed(golden::golden_points(),
                            golden::embed_options(golden::golden_options()));
  ASSERT_TRUE(golden.ok()) << golden.status().to_string();
  EXPECT_EQ(golden::fingerprint(*golden), golden::kGoldenHash);

  const auto fjlt = embed(golden::fjlt_points(),
                          golden::embed_options(golden::fjlt_options()));
  ASSERT_TRUE(fjlt.ok()) << fjlt.status().to_string();
  ASSERT_TRUE(fjlt->fjlt_applied);
  EXPECT_EQ(golden::fingerprint(*fjlt), golden::kFjltMpcHash);
  EXPECT_EQ(fjlt->scale_to_input, golden::kFjltScaleToInput);
  EXPECT_EQ(fjlt->delta_used, golden::kFjltDelta);
  EXPECT_EQ(fjlt->retries_used, golden::kFjltRetries);
}

TEST(Embedder, InfeasibleGridCountIsAStatus) {
  const PointSet points = generate_gaussian_clusters(500, 16, 8, 100.0, 1.0, 3);
  EmbedOptions options;
  options.method = PartitionMethod::kBall;
  const auto result = embed(points, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Embedder, PureBallStillEmbedsAtDimensionEight) {
  // d = 8 pure ball needs U = 368,184 grids per set: large, but inside the
  // grid-set limits, so it embeds.
  const PointSet points = generate_gaussian_clusters(500, 8, 8, 100.0, 1.0, 3);
  EmbedOptions options;
  options.method = PartitionMethod::kBall;
  const auto result = embed(points, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->grids_used, 368184u);
  EXPECT_TRUE(result->tree.validate().ok());
}

}  // namespace
}  // namespace mpte
