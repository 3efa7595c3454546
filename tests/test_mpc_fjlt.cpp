#include "transform/mpc_fjlt.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/generators.hpp"
#include "mpc/point_blocks.hpp"

namespace mpte {
namespace {

using mpc::Cluster;
using mpc::ClusterConfig;

/// Expects every machine of `cluster` to hold the block of `expected` that
/// scatter_points would give it: the same emb/idx, and emb/pts equal
/// within a relative `tolerance` (0 = bit for bit).
void expect_resident_blocks(const Cluster& cluster, const PointSet& expected,
                            double tolerance) {
  Cluster reference(ClusterConfig{cluster.num_machines(), 1 << 30, false});
  mpc::scatter_points(reference, expected);
  for (mpc::MachineId id = 0; id < cluster.num_machines(); ++id) {
    const auto& store = cluster.store(id);
    const auto& want = reference.store(id);
    ASSERT_EQ(mpc::keys::kIdx.get(store), mpc::keys::kIdx.get(want))
        << "rank " << id;
    const auto got = mpc::keys::kPts.get(store);
    const auto rows = mpc::keys::kPts.get(want);
    ASSERT_EQ(got.size(), rows.size()) << "rank " << id;
    for (std::size_t e = 0; e < rows.size(); ++e) {
      if (tolerance == 0.0) {
        EXPECT_EQ(got[e], rows[e]) << "rank " << id << " entry " << e;
      } else {
        EXPECT_NEAR(got[e], rows[e], tolerance * (1.0 + std::abs(rows[e])))
            << "rank " << id << " entry " << e;
      }
    }
  }
}

TEST(MpcFjlt, LocalModeBitIdenticalToSequential) {
  const std::size_t n = 20, d = 50;
  const PointSet points = generate_uniform_cube(n, d, 5.0, 1);
  const FjltConfig config = FjltConfig::make(n, d, 0.3, 42);

  Cluster cluster(ClusterConfig{4, 1 << 20, true});
  const MpcFjltReport report = mpc_fjlt(cluster, points, config);
  const PointSet seq_out = Fjlt(config).transform(points);

  EXPECT_FALSE(report.sharded);
  const PointSet mpc_out =
      mpc::gather_points(cluster, n, config.output_dim);
  EXPECT_EQ(mpc_out.raw(), seq_out.raw());  // bit-identical
  // The output stays resident, in the block layout scatter_points writes.
  expect_resident_blocks(cluster, seq_out, 0.0);
}

TEST(MpcFjlt, LocalModeUsesOneRound) {
  const PointSet points = generate_uniform_cube(16, 32, 1.0, 2);
  const FjltConfig config = FjltConfig::make(16, 32, 0.4, 3);
  Cluster cluster(ClusterConfig{4, 1 << 20, true});
  EXPECT_EQ(mpc_fjlt(cluster, points, config).rounds, 1u);
}

TEST(MpcFjlt, ShardedModeMatchesSequentialNumerically) {
  const std::size_t n = 6, d = 200;  // padded to 256
  const PointSet points = generate_uniform_cube(n, d, 3.0, 5);
  const FjltConfig config = FjltConfig::make(n, d, 0.45, 7);

  // Small local memory forces the sharded path.
  Cluster cluster(ClusterConfig{8, 8192, true});
  const MpcFjltReport report = mpc_fjlt(cluster, points, config);
  const PointSet seq_out = Fjlt(config).transform(points);
  const PointSet mpc_out = mpc::gather_points(cluster, n, config.output_dim);

  EXPECT_TRUE(report.sharded);
  EXPECT_GE(report.block_size, 16u);  // >= sqrt(256)
  expect_resident_blocks(cluster, seq_out, 1e-9);
  ASSERT_EQ(mpc_out.size(), seq_out.size());
  ASSERT_EQ(mpc_out.dim(), seq_out.dim());
  for (std::size_t i = 0; i < mpc_out.size(); ++i) {
    for (std::size_t j = 0; j < mpc_out.dim(); ++j) {
      EXPECT_NEAR(mpc_out.coord(i, j), seq_out.coord(i, j),
                  1e-9 * (1.0 + std::abs(seq_out.coord(i, j))))
          << "point " << i << " coord " << j;
    }
  }
}

TEST(MpcFjlt, ShardedModeConstantRounds) {
  // Rounds do not depend on n in sharded mode (4 rounds).
  for (const std::size_t n : {4u, 16u}) {
    const PointSet points = generate_uniform_cube(n, 200, 3.0, 11);
    const FjltConfig config = FjltConfig::make(n, 200, 0.45, 13);
    Cluster cluster(ClusterConfig{16, n * 700, true});
    const MpcFjltReport report = mpc_fjlt(cluster, points, config);
    EXPECT_TRUE(report.sharded) << "n=" << n;
    EXPECT_EQ(report.rounds, 4u) << "n=" << n;
  }
}

TEST(MpcFjlt, RespectsLocalMemoryAccounting) {
  const PointSet points = generate_uniform_cube(8, 128, 1.0, 17);
  const FjltConfig config = FjltConfig::make(8, 128, 0.45, 19);
  Cluster cluster(ClusterConfig{8, 8192, true});
  (void)mpc_fjlt(cluster, points, config);
  // Every round passed enforcement; peak stays under the configured cap.
  EXPECT_LE(cluster.stats().peak_local_bytes(), 8192u);
}

TEST(MpcFjlt, MultilevelModeMatchesSequentialNumerically) {
  // Force the general m-stage Kronecker pipeline: local memory small
  // enough that block^2 < d_padded. Enforcement is off because the tiny
  // per-machine budget makes hash-balance violations statistical noise —
  // the audited regime is covered by the two-level test; here we verify
  // the m-stage arithmetic.
  const std::size_t n = 4, d = 200;  // padded to 256
  const PointSet points = generate_uniform_cube(n, d, 3.0, 41);
  const FjltConfig config = FjltConfig::make(n, d, 0.45, 43);

  Cluster cluster(ClusterConfig{32, 400, false});
  const MpcFjltReport report = mpc_fjlt(cluster, points, config);
  const PointSet seq_out = Fjlt(config).transform(points);
  const PointSet mpc_out = mpc::gather_points(cluster, n, config.output_dim);

  EXPECT_TRUE(report.sharded);
  EXPECT_GE(report.kronecker_levels, 3u);
  expect_resident_blocks(cluster, seq_out, 1e-9);
  // block_cap^2 < 256 forced the multilevel path.
  EXPECT_LT(report.block_size * report.block_size, 256u);
  ASSERT_EQ(mpc_out.size(), seq_out.size());
  ASSERT_EQ(mpc_out.dim(), seq_out.dim());
  for (std::size_t i = 0; i < mpc_out.size(); ++i) {
    for (std::size_t j = 0; j < mpc_out.dim(); ++j) {
      EXPECT_NEAR(mpc_out.coord(i, j), seq_out.coord(i, j),
                  1e-9 * (1.0 + std::abs(seq_out.coord(i, j))))
          << "point " << i << " coord " << j;
    }
  }
}

TEST(MpcFjlt, MultilevelRoundsScaleWithStagesNotN) {
  for (const std::size_t n : {3u, 9u}) {
    const PointSet points = generate_uniform_cube(n, 200, 3.0, 47);
    const FjltConfig config = FjltConfig::make(n, 200, 0.45, 49);
    Cluster cluster(ClusterConfig{32, 400, false});
    const MpcFjltReport report = mpc_fjlt(cluster, points, config);
    // stages + 1 assembly round.
    EXPECT_EQ(report.rounds, report.kronecker_levels + 1) << "n=" << n;
  }
}

TEST(MpcFjlt, TwoLevelReportsTwoKroneckerLevels) {
  const PointSet points = generate_uniform_cube(6, 200, 3.0, 51);
  const FjltConfig config = FjltConfig::make(6, 200, 0.45, 53);
  Cluster cluster(ClusterConfig{8, 8192, true});
  const MpcFjltReport report = mpc_fjlt(cluster, points, config);
  EXPECT_TRUE(report.sharded);
  EXPECT_EQ(report.kronecker_levels, 2u);
}

TEST(MpcFjlt, ShardedOutputsLandOnTheirBlockOwners) {
  // More points than machines, so a point's block owner (index / ⌈n/m⌉)
  // differs from any round-robin choice. Limits are off: the tiny budgets
  // only force the two sharded modes.
  const std::size_t n = 13, d = 200;
  const PointSet points = generate_uniform_cube(n, d, 3.0, 55);
  const FjltConfig config = FjltConfig::make(n, d, 0.45, 57);
  const PointSet seq_out = Fjlt(config).transform(points);
  for (const std::size_t budget : {8192u, 400u}) {
    Cluster cluster(ClusterConfig{5, budget, false});
    const MpcFjltReport report = mpc_fjlt(cluster, points, config);
    EXPECT_TRUE(report.sharded);
    EXPECT_EQ(report.kronecker_levels > 2, budget == 400u);
    expect_resident_blocks(cluster, seq_out, 1e-9);
  }
}

TEST(MpcFjlt, DimensionMismatchThrows) {
  const PointSet points = generate_uniform_cube(4, 10, 1.0, 23);
  const FjltConfig config = FjltConfig::make(4, 12, 0.4, 29);
  Cluster cluster(ClusterConfig{2, 1 << 20, true});
  EXPECT_THROW((void)mpc_fjlt(cluster, points, config), MpteError);
}

TEST(MpcFjlt, PreservesDistancesEndToEnd) {
  const std::size_t n = 30, d = 300;
  const double xi = 0.45;
  const PointSet points = generate_gaussian_clusters(n, d, 3, 10.0, 1.0, 31);
  const FjltConfig config = FjltConfig::make(n, d, xi, 37);
  Cluster cluster(ClusterConfig{8, 1 << 16, true});
  (void)mpc_fjlt(cluster, points, config);
  const PointSet mapped = mpc::gather_points(cluster, n, config.output_dim);
  std::size_t violations = 0, pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double orig = l2_distance(points[i], points[j]);
      const double now = l2_distance(mapped[i], mapped[j]);
      ++pairs;
      if (now < (1 - xi) * orig || now > (1 + xi) * orig) ++violations;
    }
  }
  EXPECT_LE(violations, pairs / 50);
}

}  // namespace
}  // namespace mpte
