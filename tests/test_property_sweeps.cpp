// Cross-module property sweeps: the paper's invariants checked over a
// grid of (partition method x workload shape x size x parameters) far
// wider than any single unit test — domination everywhere, laminarity
// everywhere, metric axioms on every produced tree, MPC/sequential
// agreement across cluster shapes.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/embedder.hpp"
#include "core/mpc_embedder.hpp"
#include "geometry/generators.hpp"
#include "oracles.hpp"
#include "plan_hierarchy.hpp"
#include "tree/distortion.hpp"
#include "tree/embedding_builder.hpp"

namespace mpte {
namespace {

enum class Workload { kUniform, kClusters, kSubspace, kLattice, kBlobs };

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kUniform:
      return "uniform";
    case Workload::kClusters:
      return "clusters";
    case Workload::kSubspace:
      return "subspace";
    case Workload::kLattice:
      return "lattice";
    case Workload::kBlobs:
      return "blobs";
  }
  return "?";
}

PointSet make_workload(Workload w, std::size_t n, std::size_t dim,
                       std::uint64_t seed) {
  switch (w) {
    case Workload::kUniform:
      return generate_uniform_cube(n, dim, 50.0, seed);
    case Workload::kClusters:
      return generate_gaussian_clusters(n, dim, 5, 100.0, 1.0, seed);
    case Workload::kSubspace:
      return generate_subspace(n, dim, std::max<std::size_t>(1, dim / 3),
                               50.0, 0.05, seed);
    case Workload::kLattice:
      return generate_lattice(n, dim, 2.5);
    case Workload::kBlobs:
      return generate_two_blobs(n, dim, 300.0, 1.0, seed);
  }
  return PointSet{};
}

using SweepParam = std::tuple<PartitionMethod, Workload, std::size_t>;

class EmbeddingPropertySweep : public ::testing::TestWithParam<SweepParam> {
 public:
  static std::string Name(
      const ::testing::TestParamInfo<SweepParam>& info) {
    const auto [method, workload, n] = info.param;
    return std::string(method_name(method)) + "_" + workload_name(workload) +
           "_" + std::to_string(n);
  }
};

TEST_P(EmbeddingPropertySweep, TreeIsValidAndDominates) {
  const auto [method, workload, n] = GetParam();
  const PointSet points = make_workload(workload, n, 5, 31 + n);
  EmbedOptions options;
  options.method = method;
  options.use_fjlt = false;
  options.seed = 7 + n;
  const auto result = embed(points, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  // Structural validity.
  EXPECT_TRUE(result->tree.validate().ok());
  EXPECT_EQ(result->tree.num_points(), n);

  // Domination over the embedded coordinates — exact, every sampled pair.
  const auto stats =
      measure_distortion(result->tree, result->embedded_points, 1500, 3);
  EXPECT_GE(stats.min_ratio, 1.0);

  // Metric axioms on a sample of triples.
  const Hst& tree = result->tree;
  Rng rng(11);
  for (int t = 0; t < 50; ++t) {
    const std::size_t a = rng.uniform_u64(n);
    const std::size_t b = rng.uniform_u64(n);
    const std::size_t c = rng.uniform_u64(n);
    EXPECT_NEAR(tree.distance(a, b), tree.distance(b, a), 1e-12);
    EXPECT_LE(tree.distance(a, c),
              tree.distance(a, b) + tree.distance(b, c) + 1e-9);
    EXPECT_EQ(tree.distance(a, a), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EmbeddingPropertySweep,
    ::testing::Combine(::testing::Values(PartitionMethod::kGrid,
                                         PartitionMethod::kBall,
                                         PartitionMethod::kHybrid),
                       ::testing::Values(Workload::kUniform,
                                         Workload::kClusters,
                                         Workload::kSubspace,
                                         Workload::kLattice,
                                         Workload::kBlobs),
                       ::testing::Values(24u, 96u)),
    EmbeddingPropertySweep::Name);

class BucketSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BucketSweep, HybridValidForEveryR) {
  const std::uint32_t r = GetParam();
  const PointSet points = generate_uniform_cube(64, 8, 40.0, 41);
  EmbedOptions options;
  options.num_buckets = r;
  options.use_fjlt = false;
  options.seed = 43;
  const auto result = embed(points, options);
  ASSERT_TRUE(result.ok()) << "r=" << r;
  EXPECT_EQ(result->buckets_used, r);
  const auto stats =
      measure_distortion(result->tree, result->embedded_points, 1000, 5);
  EXPECT_GE(stats.min_ratio, 1.0) << "r=" << r;
}

INSTANTIATE_TEST_SUITE_P(AllBucketCounts, BucketSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

class ClusterShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ClusterShapeSweep, MpcMatchesSequentialForEveryShape) {
  const auto [machines, fanout] = GetParam();
  const PointSet points = generate_uniform_cube(40, 4, 30.0, 47);

  EmbedOptions seq;
  seq.num_buckets = 2;
  seq.delta = 128;
  seq.seed = 53;
  seq.use_fjlt = false;
  const auto a = embed(points, seq);
  ASSERT_TRUE(a.ok());

  mpc::Cluster cluster(mpc::ClusterConfig{machines, 1 << 22, true});
  MpcEmbedOptions par;
  par.num_buckets = 2;
  par.delta = 128;
  par.seed = 53;
  par.use_fjlt = false;
  par.broadcast_fanout = fanout;
  const auto b = mpc_embed(cluster, points, par);
  ASSERT_TRUE(b.ok()) << b.status().to_string();

  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = i + 1; j < 40; ++j) {
      EXPECT_DOUBLE_EQ(a->tree.distance(i, j), b->tree.distance(i, j))
          << "machines=" << machines << " fanout=" << fanout;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClusterShapeSweep,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 1),
                      std::make_tuple(3, 2), std::make_tuple(7, 3),
                      std::make_tuple(16, 4)));

class SeedStabilitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedStabilitySweep, EverySeedProducesAValidDominatingTree) {
  const std::uint64_t seed = GetParam();
  const PointSet points = generate_gaussian_clusters(60, 4, 3, 80.0, 1.5,
                                                     seed * 13 + 1);
  EmbedOptions options;
  options.seed = seed;
  options.use_fjlt = false;
  const auto result = embed(points, options);
  ASSERT_TRUE(result.ok()) << "seed=" << seed;
  EXPECT_TRUE(result->tree.validate().ok());
  const auto stats =
      measure_distortion(result->tree, result->embedded_points, 800, seed);
  EXPECT_GE(stats.min_ratio, 1.0) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedStabilitySweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace mpte
