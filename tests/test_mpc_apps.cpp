#include "apps/mpc_apps.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <span>
#include <string>

#include "apps/emd.hpp"
#include "apps/mst.hpp"
#include "apps/union_find.hpp"
#include "ckpt/recovery.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"
#include "golden.hpp"
#include "oracles.hpp"
#include "plan_hierarchy.hpp"

namespace mpte {
namespace {

using mpc::Cluster;
using mpc::ClusterConfig;

Cluster big_cluster(std::size_t machines = 5) {
  return Cluster(ClusterConfig{machines, 1 << 22, true});
}

MpcEmbedOptions base_options(std::uint64_t seed) {
  MpcEmbedOptions options;
  options.seed = seed;
  options.use_fjlt = false;
  options.delta = 256;
  options.num_buckets = 2;
  return options;
}

/// The sequential hierarchy matching what the MPC pipeline computes for
/// `options` (first attempt's seed).
Hierarchy reference_hierarchy(const PointSet& points,
                              const MpcEmbedOptions& options) {
  const Quantized q = quantize_to_grid(points, options.delta);
  PartitionOptions partition;
  partition.num_buckets = options.num_buckets;
  const std::uint64_t seed = hash_combine(mix64(options.seed), 0);  // attempt 0
  auto result = plan_and_build(q.points, PartitionMethod::kHybrid,
                               options.delta, seed, partition);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(MpcTreeEmd, ValidatesInputs) {
  Cluster cluster = big_cluster();
  const PointSet a = generate_uniform_cube(4, 2, 10.0, 1);
  const PointSet b = generate_uniform_cube(5, 2, 10.0, 2);
  EXPECT_FALSE(mpc_tree_emd(cluster, a, b, base_options(1)).ok());
  const PointSet c = generate_uniform_cube(4, 3, 10.0, 3);
  EXPECT_FALSE(mpc_tree_emd(cluster, a, c, base_options(1)).ok());
}

TEST(MpcTreeEmd, MatchesSequentialHierarchyEmd) {
  const PointSet a = generate_uniform_cube(20, 3, 30.0, 5);
  const PointSet b = generate_uniform_cube(20, 3, 30.0, 6);
  PointSet all = a;
  for (std::size_t i = 0; i < b.size(); ++i) all.push_back(b[i]);

  const MpcEmbedOptions options = base_options(7);
  Cluster cluster = big_cluster();
  const auto mpc_result = mpc_tree_emd(cluster, a, b, options);
  ASSERT_TRUE(mpc_result.ok()) << mpc_result.status().to_string();

  const Hierarchy hierarchy = reference_hierarchy(all, options);
  std::vector<int> side(40);
  for (std::size_t i = 0; i < 40; ++i) side[i] = i < 20 ? 1 : -1;
  const Quantized q = quantize_to_grid(all, options.delta);
  const double expected = hierarchy_emd(hierarchy, side) * q.scale_back;

  EXPECT_NEAR(mpc_result->emd, expected, 1e-9 * (1.0 + expected));
}

TEST(MpcTreeEmd, DominatesExactEmd) {
  const PointSet a = generate_uniform_cube(12, 3, 30.0, 9);
  const PointSet b = generate_uniform_cube(12, 3, 30.0, 10);
  Cluster cluster = big_cluster();
  const auto result = mpc_tree_emd(cluster, a, b, base_options(11));
  ASSERT_TRUE(result.ok());
  // Tree metric dominates; quantization can nudge by ~eps.
  EXPECT_GE(result->emd, exact_emd(a, b) * 0.9);
}

TEST(MpcTreeEmd, ZeroForIdenticalSides) {
  const PointSet a = generate_uniform_cube(10, 2, 20.0, 13);
  Cluster cluster = big_cluster();
  const auto result = mpc_tree_emd(cluster, a, a, base_options(15));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->emd, 0.0, 1e-9);
}

TEST(MpcTreeEmd, ConstantRounds) {
  std::size_t rounds_small = 0, rounds_large = 0;
  for (const std::size_t half : {16u, 64u}) {
    const PointSet a = generate_uniform_cube(half, 3, 30.0, 17);
    const PointSet b = generate_uniform_cube(half, 3, 30.0, 18);
    Cluster cluster = big_cluster();
    const auto result = mpc_tree_emd(cluster, a, b, base_options(19));
    ASSERT_TRUE(result.ok());
    (half == 16 ? rounds_small : rounds_large) = result->rounds_used;
  }
  EXPECT_EQ(rounds_small, rounds_large);
}

TEST(MpcDensestBall, MatchesSequentialHierarchyVersion) {
  const PointSet points =
      generate_gaussian_clusters(60, 3, 3, 200.0, 1.5, 21);
  const MpcEmbedOptions options = base_options(23);
  const double max_diameter = 50.0;

  Cluster cluster = big_cluster();
  const auto mpc_result =
      mpc_densest_ball(cluster, points, max_diameter, options);
  ASSERT_TRUE(mpc_result.ok()) << mpc_result.status().to_string();

  const Hierarchy hierarchy = reference_hierarchy(points, options);
  const Quantized q = quantize_to_grid(points, options.delta);
  const auto expected =
      hierarchy_densest_ball(hierarchy, max_diameter / q.scale_back);

  EXPECT_EQ(mpc_result->count, expected.count);
  EXPECT_NEAR(mpc_result->diameter, expected.diameter * q.scale_back,
              1e-9 * (1.0 + mpc_result->diameter));
}

TEST(MpcDensestBall, NegativeDiameterRejected) {
  Cluster cluster = big_cluster();
  const PointSet points = generate_uniform_cube(10, 2, 10.0, 25);
  EXPECT_FALSE(
      mpc_densest_ball(cluster, points, -1.0, base_options(27)).ok());
}

TEST(MpcDensestBall, HugeDiameterCapturesEverything) {
  const PointSet points = generate_uniform_cube(40, 3, 20.0, 29);
  Cluster cluster = big_cluster();
  const auto result =
      mpc_densest_ball(cluster, points, 1e9, base_options(31));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 40u);
}

TEST(MpcDensestBall, TinyDiameterGivesSingleton) {
  const PointSet points = generate_uniform_cube(40, 3, 20.0, 33);
  Cluster cluster = big_cluster();
  const auto result =
      mpc_densest_ball(cluster, points, 0.0, base_options(35));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 1u);
  EXPECT_EQ(result->diameter, 0.0);
}

TEST(MpcTreeMst, ProducesSpanningTree) {
  const PointSet points = generate_uniform_cube(50, 3, 30.0, 37);
  Cluster cluster = big_cluster();
  const auto result = mpc_tree_mst(cluster, points, base_options(39));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_EQ(result->edges.size(), points.size() - 1);
  UnionFind uf(points.size());
  for (const MstEdge& e : result->edges) {
    EXPECT_TRUE(uf.unite(e.u, e.v)) << "cycle at " << e.u << "-" << e.v;
  }
  EXPECT_EQ(uf.num_sets(), 1u);
}

TEST(MpcTreeMst, CostDominatesExactMst) {
  const PointSet points = generate_uniform_cube(60, 3, 30.0, 41);
  Cluster cluster = big_cluster();
  const auto result = mpc_tree_mst(cluster, points, base_options(43));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->total_length,
            exact_mst(points).total_length - 1e-9);
  // And within a sane factor on uniform data.
  EXPECT_LT(result->total_length, 20.0 * exact_mst(points).total_length);
}

TEST(MpcTreeMst, ConstantRounds) {
  std::size_t rounds_small = 0, rounds_large = 0;
  for (const std::size_t n : {24u, 96u}) {
    const PointSet points = generate_uniform_cube(n, 3, 30.0, 45);
    Cluster cluster = big_cluster();
    const auto result = mpc_tree_mst(cluster, points, base_options(47));
    ASSERT_TRUE(result.ok());
    (n == 24 ? rounds_small : rounds_large) = result->rounds_used;
  }
  EXPECT_EQ(rounds_small, rounds_large);
}

TEST(MpcTreeMst, ClusteredDataSingleBridge) {
  const PointSet points = generate_two_blobs(40, 3, 2000.0, 1.0, 49);
  Cluster cluster = big_cluster();
  MpcEmbedOptions options = base_options(51);
  options.delta = 1 << 14;  // resolve the tight blobs
  const auto result = mpc_tree_mst(cluster, points, options);
  ASSERT_TRUE(result.ok());
  std::size_t long_edges = 0;
  for (const MstEdge& e : result->edges) {
    if (e.length > 1000.0) ++long_edges;
  }
  EXPECT_EQ(long_edges, 1u);
}

TEST(HierarchyEmd, ValidatesSides) {
  const PointSet points = generate_uniform_cube(10, 2, 20.0, 53);
  const Hierarchy hierarchy =
      reference_hierarchy(points, base_options(55));
  EXPECT_THROW((void)hierarchy_emd(hierarchy, std::vector<int>(3, 0)),
               MpteError);
  EXPECT_THROW((void)hierarchy_emd(hierarchy, std::vector<int>(10, 1)),
               MpteError);
}

TEST(HierarchyDensestBall, MonotoneInDiameter) {
  const PointSet points =
      generate_gaussian_clusters(50, 3, 4, 100.0, 1.0, 57);
  const Hierarchy hierarchy =
      reference_hierarchy(points, base_options(59));
  std::size_t prev = 0;
  for (const double d : {0.0, 5.0, 20.0, 100.0, 1e6}) {
    const auto result = hierarchy_densest_ball(hierarchy, d);
    EXPECT_GE(result.count, std::max<std::size_t>(prev, 1));
    EXPECT_LE(result.diameter, d);
    prev = result.count;
  }
}

TEST(MpcApps, InfeasibleGridCountIsAStatus) {
  Cluster cluster = big_cluster();
  const PointSet points = generate_uniform_cube(60, 16, 30.0, 3);
  MpcEmbedOptions options = base_options(3);
  options.num_buckets = 1;
  const auto result = mpc_tree_mst(cluster, points, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("k = 16"), std::string::npos);
}

/// Runs an application call on a fresh golden_config(threads) cluster and
/// returns its result.
constexpr auto run_directly = [](std::size_t threads, auto&& app) {
  Cluster cluster(golden::golden_config(threads));
  return app(cluster);
};

/// Runs the three applications on `points` (EMD sides: the two halves), each
/// through `run` — directly by default — and expects every reported field
/// to equal `pins` bit for bit.
template <typename Run = decltype(run_directly)>
void expect_app_pins(const PointSet& points, const MpcEmbedOptions& options,
                     const golden::AppPins& pins, Run run = run_directly) {
  const std::size_t half = points.size() / 2;
  PointSet a, b;
  for (std::size_t i = 0; i < half; ++i) {
    a.push_back(points[i]);
    b.push_back(points[half + i]);
  }
  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      const auto emd = run(threads, [&](Cluster& cluster) {
        return mpc_tree_emd(cluster, a, b, options);
      });
      ASSERT_TRUE(emd.ok()) << emd.status().to_string();
      EXPECT_EQ(emd->emd, pins.emd);
      EXPECT_EQ(emd->retries_used, pins.retries);
      EXPECT_EQ(emd->rounds_used, pins.emd_rounds);
    }
    {
      const auto ball = run(threads, [&](Cluster& cluster) {
        return mpc_densest_ball(cluster, points, pins.max_diameter, options);
      });
      ASSERT_TRUE(ball.ok()) << ball.status().to_string();
      EXPECT_EQ(ball->count, pins.ball_count);
      EXPECT_EQ(ball->diameter, pins.ball_diameter);
      EXPECT_EQ(ball->retries_used, pins.retries);
      EXPECT_EQ(ball->rounds_used, pins.ball_rounds);
    }
    {
      const auto mst = run(threads, [&](Cluster& cluster) {
        return mpc_tree_mst(cluster, points, options);
      });
      ASSERT_TRUE(mst.ok()) << mst.status().to_string();
      std::uint64_t edges = kFnv1aOffsetBasis;
      for (const MstEdge& e : mst->edges) {
        const std::uint64_t uv[2] = {e.u, e.v};
        edges = fnv1a64(std::span(reinterpret_cast<const std::uint8_t*>(uv),
                                  sizeof uv),
                        edges);
      }
      EXPECT_EQ(edges, pins.mst_fingerprint);
      EXPECT_EQ(mst->total_length, pins.mst_length);
      EXPECT_EQ(mst->retries_used, pins.retries);
      EXPECT_EQ(mst->rounds_used, pins.mst_rounds);
    }
  }
}

TEST(MpcApps, GoldenConfigPinnedBitForBit) {
  expect_app_pins(golden::golden_points(), golden::golden_options(),
                  golden::kGoldenAppPins);
}

TEST(MpcApps, FjltDerivedDeltaConfigPinnedBitForBit) {
  expect_app_pins(golden::fjlt_points(), golden::fjlt_options(),
                  golden::kFjltAppPins);
}

TEST(Recovery, CrashAtEveryRoundRecoversEveryApplication) {
  // The applications share mpc_embed's resume-aware driver, so one
  // recovery path serves them all: a crash at any round, restored from
  // the previous round's snapshot and fast-forwarded, must report every
  // pinned field — rounds_used included — as the fault-free run does.
  const golden::AppPins& pins = golden::kGoldenAppPins;
  const std::size_t max_rounds =
      std::max({pins.emd_rounds, pins.ball_rounds, pins.mst_rounds});
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mpte_apps_recovery";
  for (std::size_t crash_round = 0; crash_round < max_rounds;
       ++crash_round) {
    SCOPED_TRACE("crash_round=" + std::to_string(crash_round));
    const auto run_recovered = [&](std::size_t threads, auto&& app) {
      std::filesystem::remove_all(dir);
      ClusterConfig config = golden::golden_config(threads);
      config.checkpoint.directory = dir.string();
      Cluster cluster(config);
      ckpt::FaultPlan plan;
      plan.add_crash(crash_round, crash_round % config.num_machines);
      ckpt::Coordinator coordinator =
          ckpt::Coordinator::for_cluster(cluster, std::move(plan));
      cluster.set_hooks(&coordinator);
      auto result = ckpt::run_with_recovery(cluster, coordinator,
                                            [&] { return app(cluster); });
      // An application shorter than crash_round never reaches the crash.
      const bool crashed = crash_round < cluster.stats().rounds();
      const auto& resilience = cluster.stats().resilience();
      EXPECT_EQ(resilience.recoveries, crashed ? 1u : 0u);
      EXPECT_EQ(resilience.rounds_replayed, crashed ? crash_round : 0u);
      return result;
    };
    expect_app_pins(golden::golden_points(), golden::golden_options(), pins,
                    run_recovered);
  }
  std::filesystem::remove_all(dir);
}

/// The status each of the three applications returns for `options`.
std::vector<Status> app_statuses(const MpcEmbedOptions& options) {
  const PointSet a = generate_uniform_cube(12, 4, 30.0, 71);
  const PointSet b = generate_uniform_cube(12, 4, 30.0, 72);
  PointSet all = a;
  for (std::size_t i = 0; i < b.size(); ++i) all.push_back(b[i]);
  std::vector<Status> out;
  Cluster cluster = big_cluster();
  out.push_back(mpc_tree_emd(cluster, a, b, options).status());
  out.push_back(mpc_densest_ball(cluster, all, 10.0, options).status());
  out.push_back(mpc_tree_mst(cluster, all, options).status());
  return out;
}

TEST(MpcApps, DeltaOfOneIsInvalidArgument) {
  MpcEmbedOptions options = base_options(73);
  options.delta = 1;
  for (const Status& status : app_statuses(options)) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.to_string();
  }
}

TEST(MpcApps, NegativeMaxRetriesIsInvalidArgument) {
  MpcEmbedOptions options = base_options(75);
  options.max_retries = -1;
  for (const Status& status : app_statuses(options)) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.to_string();
  }
}

TEST(MpcApps, BucketsAboveDimensionAreClamped) {
  // r = 9 on 4-dim input runs as r = 4: the same results as asking for 4.
  MpcEmbedOptions clamped = base_options(77);
  clamped.num_buckets = 9;
  MpcEmbedOptions exact = base_options(77);
  exact.num_buckets = 4;
  const PointSet points = generate_uniform_cube(30, 4, 30.0, 79);
  Cluster c1 = big_cluster();
  Cluster c2 = big_cluster();
  const auto a = mpc_tree_mst(c1, points, clamped);
  const auto b = mpc_tree_mst(c2, points, exact);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->total_length, b->total_length);
  for (const Status& status : app_statuses(clamped)) {
    EXPECT_TRUE(status.ok()) << status.to_string();
  }
}

}  // namespace
}  // namespace mpte
