#include "core/mpc_embedder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/parallel.hpp"
#include "geometry/generators.hpp"
#include "golden.hpp"
#include "tree/distortion.hpp"
#include "tree/hst_io.hpp"
#include <string>

namespace mpte {
namespace {

using mpc::Cluster;
using mpc::ClusterConfig;

Cluster big_cluster(std::size_t machines = 4) {
  return Cluster(ClusterConfig{machines, 1 << 22, true});
}

TEST(MpcEmbedder, RejectsTooFewPoints) {
  Cluster cluster = big_cluster();
  const PointSet one = generate_uniform_cube(1, 3, 1.0, 1);
  EXPECT_FALSE(mpc_embed(cluster, one, MpcEmbedOptions{}).ok());
}

TEST(MpcEmbedder, DeltaOfOneIsInvalidArgument) {
  Cluster cluster = big_cluster();
  const PointSet points = generate_uniform_cube(20, 3, 10.0, 2);
  MpcEmbedOptions options;
  options.delta = 1;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MpcEmbedder, NegativeMaxRetriesIsInvalidArgument) {
  Cluster cluster = big_cluster();
  const PointSet points = generate_uniform_cube(20, 3, 10.0, 3);
  MpcEmbedOptions options;
  options.max_retries = -1;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster.stats().rounds(), 0u);  // rejected before any round
}

TEST(MpcEmbedder, BucketsAboveDimensionAreClamped) {
  const PointSet points = generate_uniform_cube(30, 4, 10.0, 4);
  MpcEmbedOptions options;
  options.num_buckets = 9;
  options.delta = 256;
  Cluster c1 = big_cluster();
  const auto clamped = mpc_embed(c1, points, options);
  ASSERT_TRUE(clamped.ok()) << clamped.status().to_string();
  EXPECT_EQ(clamped->buckets_used, 4u);
  options.num_buckets = 4;
  Cluster c2 = big_cluster();
  const auto exact = mpc_embed(c2, points, options);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(golden::fingerprint(*clamped), golden::fingerprint(*exact));
}

TEST(MpcEmbedder, FjltDerivedDeltaPinned) {
  // The FJLT output never leaves the machines; Delta is derived from the
  // one read-back, and every reported field matches the pinned run.
  Cluster cluster(golden::golden_config(1));
  const auto result =
      mpc_embed(cluster, golden::fjlt_points(), golden::fjlt_options());
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->fjlt_applied);
  EXPECT_EQ(golden::fingerprint(*result), golden::kFjltMpcHash);
  EXPECT_EQ(result->scale_to_input, golden::kFjltScaleToInput);
  EXPECT_EQ(result->delta_used, golden::kFjltDelta);
  EXPECT_EQ(result->retries_used, golden::kFjltRetries);
  // Nothing of the run stays resident after the readout.
  for (mpc::MachineId id = 0; id < cluster.num_machines(); ++id) {
    EXPECT_TRUE(cluster.store(id).entries().empty()) << "rank " << id;
  }
}

TEST(MpcEmbedder, ProducesValidDominatingTree) {
  Cluster cluster = big_cluster(6);
  const PointSet points = generate_uniform_cube(90, 5, 30.0, 3);
  MpcEmbedOptions options;
  options.seed = 5;
  options.use_fjlt = false;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->tree.validate().ok());
  EXPECT_EQ(result->tree.num_points(), 90u);
  const auto stats =
      measure_distortion(result->tree, result->embedded_points, 4000, 1);
  EXPECT_GE(stats.min_ratio, 1.0);
}

TEST(MpcEmbedder, MatchesSequentialPipelineExactly) {
  // Same seed, no FJLT: the MPC tree must be the sequential tree.
  const PointSet points = generate_uniform_cube(70, 4, 20.0, 7);

  EmbedOptions seq_options;
  seq_options.method = PartitionMethod::kHybrid;
  seq_options.num_buckets = 2;
  seq_options.delta = 256;
  seq_options.seed = 11;
  seq_options.use_fjlt = false;
  const auto seq = embed(points, seq_options);
  ASSERT_TRUE(seq.ok());

  Cluster cluster = big_cluster(5);
  MpcEmbedOptions mpc_options;
  mpc_options.num_buckets = 2;
  mpc_options.delta = 256;
  mpc_options.seed = 11;
  mpc_options.use_fjlt = false;
  const auto par = mpc_embed(cluster, points, mpc_options);
  ASSERT_TRUE(par.ok()) << par.status().to_string();

  // Identical quantized points and identical tree bytes: both pipelines
  // run the one tree assembly.
  EXPECT_EQ(par->embedded_points.raw(), seq->embedded_points.raw());
  EXPECT_EQ(hst_to_bytes(par->tree), hst_to_bytes(seq->tree));
}

TEST(MpcEmbedder, ConstantRoundsAcrossN) {
  // The round count must not depend on the input size.
  std::size_t rounds_small = 0, rounds_large = 0;
  for (const std::size_t n : {32u, 256u}) {
    Cluster cluster = big_cluster(4);
    const PointSet points = generate_uniform_cube(n, 4, 20.0, 13);
    MpcEmbedOptions options;
    options.seed = 17;
    options.use_fjlt = false;
    options.delta = 128;
    const auto result = mpc_embed(cluster, points, options);
    ASSERT_TRUE(result.ok());
    (n == 32 ? rounds_small : rounds_large) = result->rounds_used;
  }
  EXPECT_EQ(rounds_small, rounds_large);
}

TEST(MpcEmbedder, WithFjltStageStillDominates) {
  Cluster cluster = big_cluster(4);
  const PointSet points = generate_uniform_cube(64, 300, 10.0, 19);
  MpcEmbedOptions options;
  options.seed = 23;
  options.use_fjlt = true;
  options.fjlt_xi = 0.4;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->fjlt_applied);
  EXPECT_LT(result->dim_used, 300u);
  const auto stats =
      measure_distortion(result->tree, result->embedded_points, 2000, 1);
  EXPECT_GE(stats.min_ratio, 1.0);
}

TEST(MpcEmbedder, ReportsCoverageFailureAfterRetries) {
  Cluster cluster = big_cluster(4);
  const PointSet points = generate_uniform_cube(120, 5, 10.0, 29);
  MpcEmbedOptions options;
  options.num_buckets = 1;  // 5-dim bucket
  options.num_grids = 2;    // far too few
  options.max_retries = 1;
  options.use_fjlt = false;
  options.seed = 31;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCoverageFailure);
}

TEST(MpcEmbedder, SingletonPolicyAvoidsFailure) {
  Cluster cluster = big_cluster(4);
  const PointSet points = generate_uniform_cube(60, 5, 10.0, 37);
  MpcEmbedOptions options;
  options.num_buckets = 1;
  options.num_grids = 2;
  options.uncovered = UncoveredPolicy::kSingleton;
  options.use_fjlt = false;
  options.seed = 41;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tree.validate().ok());
}

TEST(MpcEmbedder, LocalMemoryStaysWithinConfig) {
  Cluster cluster(ClusterConfig{8, 1 << 18, true});
  const PointSet points = generate_uniform_cube(128, 4, 20.0, 43);
  MpcEmbedOptions options;
  options.use_fjlt = false;
  options.delta = 128;
  options.seed = 47;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_LE(cluster.stats().peak_local_bytes(), 1u << 18);
}

TEST(MpcEmbedder, ScaleToInputRoundTrips) {
  Cluster cluster = big_cluster(4);
  const PointSet points = generate_uniform_cube(50, 3, 100.0, 53);
  MpcEmbedOptions options;
  options.use_fjlt = false;
  options.quantize_eps = 0.02;
  options.seed = 59;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t j = i + 1; j < 15; ++j) {
      const double true_dist = l2_distance(points[i], points[j]);
      EXPECT_GE(result->distance(i, j), (1.0 - 0.03) * true_dist);
    }
  }
}

TEST(MpcEmbedder, AutoDeltaGoldenFingerprintPinned) {
  for (const std::size_t threads : {1, 8}) {
    par::set_default_threads(threads);
    Cluster cluster(golden::golden_config(threads));
    const auto result = mpc_embed(cluster, golden::golden_points(),
                                  golden::auto_delta_options());
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->delta_used, golden::kAutoDelta);
    EXPECT_EQ(golden::fingerprint(*result), golden::kAutoDeltaMpcHash)
        << "threads " << threads;
  }
  par::set_default_threads(0);
}

TEST(MpcEmbedder, InfeasibleGridCountIsAStatus) {
  Cluster cluster = big_cluster();
  const PointSet points = generate_uniform_cube(60, 16, 30.0, 3);
  MpcEmbedOptions options;
  options.use_fjlt = false;
  options.num_buckets = 1;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("k = 16"), std::string::npos);
}

}  // namespace
}  // namespace mpte
