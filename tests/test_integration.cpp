// End-to-end properties across the whole pipeline: the Theorem 1/2
// contracts (domination + expected distortion scaling), the consistency of
// the sequential and MPC paths, and the application stack running on one
// shared embedding.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/densest_ball.hpp"
#include "apps/emd.hpp"
#include "apps/kmedian.hpp"
#include "apps/mst.hpp"
#include "core/embedder.hpp"
#include "core/mpc_embedder.hpp"
#include "geometry/generators.hpp"
#include "oracles.hpp"
#include "plan_hierarchy.hpp"
#include "tree/distortion.hpp"
#include "tree/embedding_builder.hpp"
#include "tree/hst_io.hpp"

namespace mpte {
namespace {

TEST(Integration, DistortionOrderingAcrossMethods) {
  // Theorem 2's sqrt(d*r)*logDelta shape, measured: expected distortion is
  // monotone in r (ball r=1 best, grid-like r=d worst), and the ball
  // extreme — whose tractability for large d is the entire reason hybrid
  // partitioning exists — matches or beats Arora's grid baseline. (The
  // asymptotic hybrid-vs-grid gap at matched r needs d = Theta(log n)
  // scales; the E1/E3 benches chart the trend.)
  const PointSet points = generate_uniform_cube(256, 4, 50.0, 3);
  const std::size_t trees = 8;

  const auto expected_ratio = [&](PartitionMethod method,
                                  std::uint32_t buckets) {
    std::vector<Hst> forest;
    for (std::size_t t = 0; t < trees; ++t) {
      EmbedOptions options;
      options.method = method;
      options.num_buckets = buckets;
      options.use_fjlt = false;
      options.delta = 1024;
      options.seed = 1000 + t;
      auto result = embed(points, options);
      EXPECT_TRUE(result.ok());
      forest.push_back(std::move(result->tree));
    }
    return measure_expected_distortion(forest, points, 3000, 17)
        .mean_expected_ratio;
  };

  const double ball = expected_ratio(PartitionMethod::kBall, 0);
  const double hybrid_r2 = expected_ratio(PartitionMethod::kHybrid, 2);
  const double hybrid_rd = expected_ratio(PartitionMethod::kHybrid, 4);
  const double grid = expected_ratio(PartitionMethod::kGrid, 0);

  EXPECT_LT(ball, hybrid_r2) << "distortion must grow with r";
  EXPECT_LT(hybrid_r2, hybrid_rd) << "distortion must grow with r";
  EXPECT_LT(ball, grid * 1.05) << "ball extreme at least matches grid";
}

TEST(Integration, MpcPipelineEqualsSequentialThroughFjlt) {
  // With a roomy cluster the FJLT runs in local mode (bit-identical), so
  // the *entire* MPC pipeline must reproduce the sequential tree, byte
  // for byte.
  const PointSet points = generate_uniform_cube(48, 130, 10.0, 5);

  EmbedOptions seq;
  seq.use_fjlt = true;
  seq.fjlt_xi = 0.4;
  seq.delta = 512;
  seq.seed = 7;
  const auto a = embed(points, seq);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->fjlt_applied);

  mpc::Cluster cluster(mpc::ClusterConfig{4, 1 << 23, true});
  MpcEmbedOptions par;
  par.use_fjlt = true;
  par.fjlt_xi = 0.4;
  par.delta = 512;
  par.seed = 7;
  const auto b = mpc_embed(cluster, points, par);
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  ASSERT_TRUE(b->fjlt_applied);

  EXPECT_EQ(b->embedded_points.raw(), a->embedded_points.raw());
  EXPECT_EQ(hst_to_bytes(b->tree), hst_to_bytes(a->tree));
}

TEST(Integration, ApplicationsShareOneEmbedding) {
  const PointSet points = generate_gaussian_clusters(80, 4, 4, 200.0, 2.0, 11);
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = 13;
  const auto embedding = embed(points, options);
  ASSERT_TRUE(embedding.ok());
  ASSERT_TRUE(embedding->tree.validate().ok());

  // MST.
  const MstResult mst = tree_mst(embedding->tree, points);
  EXPECT_EQ(mst.edges.size(), points.size() - 1);
  EXPECT_GE(mst.total_length, exact_mst(points).total_length - 1e-9);

  // Densest ball.
  const auto ball = densest_ball_tree(embedding->tree, 1e9);
  EXPECT_EQ(ball.count, points.size());

  // k-median.
  const auto kmed = tree_kmedian_dp(embedding->tree, 4);
  EXPECT_EQ(kmed.medians.size(), 4u);
  EXPECT_GT(kmed.tree_cost, 0.0);

  // EMD between the first and second half of the same set.
  ASSERT_EQ(points.size() % 2, 0u);
  const double emd = tree_emd_split(embedding->tree, points.size() / 2);
  EXPECT_GE(emd, 0.0);
}

TEST(Integration, DistortionScalesWithDeltaNotN) {
  // Theorem 2: expected distortion ~ sqrt(d r) log Delta. Growing n at
  // fixed Delta should barely move it; growing Delta should.
  const auto mean_expected = [&](std::size_t n, std::uint64_t delta) {
    const PointSet points = generate_uniform_cube(n, 6, 100.0, 17);
    std::vector<Hst> forest;
    for (std::size_t t = 0; t < 8; ++t) {
      EmbedOptions options;
      options.use_fjlt = false;
      options.delta = delta;
      options.num_buckets = 3;
      options.seed = 300 + t;
      auto result = embed(points, options);
      EXPECT_TRUE(result.ok());
      forest.push_back(std::move(result->tree));
    }
    return measure_expected_distortion(forest, points, 1500, 23)
        .mean_expected_ratio;
  };

  const double small_delta = mean_expected(96, 1 << 6);
  const double large_delta = mean_expected(96, 1 << 14);
  EXPECT_GT(large_delta, small_delta * 1.3)
      << "distortion should grow with log Delta";

  const double small_n = mean_expected(48, 1 << 10);
  const double large_n = mean_expected(192, 1 << 10);
  EXPECT_LT(large_n, small_n * 2.0)
      << "distortion should be insensitive to n at fixed Delta";
}

TEST(Integration, EveryMethodDominatesOnAdversarialLattice) {
  const PointSet points = generate_lattice(125, 3, 3.0);
  for (const auto method :
       {PartitionMethod::kGrid, PartitionMethod::kBall,
        PartitionMethod::kHybrid}) {
    EmbedOptions options;
    options.method = method;
    options.use_fjlt = false;
    options.seed = 29;
    const auto result = embed(points, options);
    ASSERT_TRUE(result.ok()) << method_name(method);
    const auto stats =
        measure_distortion(result->tree, result->embedded_points, 4000, 1);
    EXPECT_GE(stats.min_ratio, 1.0) << method_name(method);
  }
}

}  // namespace
}  // namespace mpte
