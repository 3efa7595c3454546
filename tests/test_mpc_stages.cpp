#include "core/mpc_stages.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"
#include "mpc/primitives.hpp"
#include "partition/ball_partition.hpp"
#include "partition/coverage.hpp"
#include "plan_hierarchy.hpp"

namespace mpte::detail {
namespace {

using mpc::Cluster;
using mpc::ClusterConfig;
using mpc::KV;

Cluster test_cluster(std::size_t machines = 4) {
  return Cluster(ClusterConfig{machines, 1 << 22, true});
}

TEST(PackLevelNode, RoundTripsLevel) {
  for (const std::size_t level : {0u, 1u, 17u, 63u}) {
    const std::uint64_t key = pack_level_node(level, mix64(level + 99));
    EXPECT_EQ(packed_level(key), level);
  }
}

TEST(PackLevelNode, DistinctIdsStayDistinct) {
  std::set<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    keys.insert(pack_level_node(3, mix64(i)));
  }
  EXPECT_EQ(keys.size(), 1000u);
}

TEST(ScatterPoints, PreservesIndexCoordinatePairing) {
  Cluster cluster = test_cluster(3);
  const PointSet points = generate_uniform_cube(10, 2, 5.0, 1);
  mpc::scatter_points(cluster, points);
  for (std::uint32_t id = 0; id < 3; ++id) {
    const auto idx = cluster.store(id).get_vector<std::uint64_t>("emb/idx");
    const auto data = cluster.store(id).get_vector<double>("emb/pts");
    ASSERT_EQ(data.size(), idx.size() * 2);
    for (std::size_t local = 0; local < idx.size(); ++local) {
      EXPECT_EQ(data[local * 2], points.coord(idx[local], 0));
      EXPECT_EQ(data[local * 2 + 1], points.coord(idx[local], 1));
    }
  }
}

TEST(MpcQuantize, MatchesSequentialQuantizer) {
  Cluster cluster = test_cluster(4);
  const PointSet points = generate_uniform_cube(37, 3, 80.0, 3);
  const std::uint64_t delta = 128;
  mpc::scatter_points(cluster, points);
  mpc_quantize(cluster, 3, delta, 2);

  const Quantized expected = quantize_to_grid(points, delta);
  for (std::uint32_t id = 0; id < 4; ++id) {
    const auto idx = cluster.store(id).get_vector<std::uint64_t>("emb/idx");
    const auto data = cluster.store(id).get_vector<double>("emb/pts");
    for (std::size_t local = 0; local < idx.size(); ++local) {
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(data[local * 3 + j],
                  expected.points.coord(idx[local], j))
            << "point " << idx[local] << " coord " << j;
      }
    }
  }
}

PartitionParams make_params(std::uint64_t seed, std::size_t n,
                            std::size_t dim, std::uint32_t r,
                            std::uint64_t delta) {
  PartitionParams params;
  params.seed = seed;
  params.delta = delta;
  params.num_buckets = r;
  params.bucket_dim = static_cast<std::uint32_t>((dim + r - 1) / r);
  params.effective_dim = params.bucket_dim * r;
  params.uncovered_singleton = 0;
  const ScaleLadder ladder = hybrid_scale_ladder(dim, r, delta);
  params.num_grids =
      recommended_num_grids(params.bucket_dim, n, r, ladder.levels, 1e-6);
  return params;
}

TEST(RunPartitionAttempt, EdgesMatchSequentialHierarchy) {
  const std::size_t n = 25, dim = 3;
  const std::uint64_t delta = 64, seed = 77;
  const PointSet raw = generate_uniform_cube(n, dim, 40.0, 5);
  const Quantized q = quantize_to_grid(raw, delta);

  Cluster cluster = test_cluster(3);
  mpc::scatter_points(cluster, q.points);
  const auto params = make_params(seed, n, dim, 2, delta);
  const std::uint64_t failures =
      run_attempt(cluster, dim, params, 2, PathOutput::kTreeEdges);
  ASSERT_EQ(failures, 0u);

  // Sequential reference ids.
  PartitionOptions options;
  options.num_buckets = 2;
  const auto hierarchy =
      plan_and_build(q.points, PartitionMethod::kHybrid, delta, seed, options);
  ASSERT_TRUE(hierarchy.ok());

  // Every sequential (child, parent) id pair must appear in the gathered
  // edge records and vice versa.
  std::set<std::pair<std::uint64_t, std::uint64_t>> expected;
  for (std::size_t level = 1; level < hierarchy->levels(); ++level) {
    for (std::size_t i = 0; i < n; ++i) {
      expected.emplace(hierarchy->cluster_of_point[level][i],
                       hierarchy->cluster_of_point[level - 1][i]);
    }
  }
  std::set<std::pair<std::uint64_t, std::uint64_t>> actual;
  for (const KV& kv : mpc::gather_vector<KV>(cluster, "emb/edges")) {
    actual.emplace(kv.key, kv.value);
  }
  EXPECT_EQ(actual, expected);
}

TEST(RunPathRecordsAttempt, RecordsCoverEveryPointAndLevel) {
  const std::size_t n = 20, dim = 2;
  const std::uint64_t delta = 32, seed = 99;
  const PointSet raw = generate_uniform_cube(n, dim, 40.0, 7);
  const Quantized q = quantize_to_grid(raw, delta);

  Cluster cluster = test_cluster(4);
  mpc::scatter_points(cluster, q.points);
  const auto params = make_params(seed, n, dim, 2, delta);
  ASSERT_EQ(run_attempt(cluster, dim, params, 2, PathOutput::kRecords), 0u);

  const ScaleLadder ladder = hybrid_scale_ladder(dim, 2, delta);
  const auto records = mpc::gather_vector<KV>(cluster, "emb/nodes");
  EXPECT_EQ(records.size(), n * ladder.levels);
  std::vector<std::size_t> per_point(n, 0);
  for (const KV& kv : records) {
    const std::size_t level = packed_level(kv.key);
    EXPECT_GE(level, 1u);
    EXPECT_LE(level, ladder.levels);
    ++per_point[kv.value];
  }
  for (const std::size_t count : per_point) {
    EXPECT_EQ(count, ladder.levels);
  }
}

TEST(RunPathRecordsAttempt, LinksFormChains) {
  const std::size_t n = 15, dim = 2;
  const std::uint64_t delta = 32, seed = 111;
  const PointSet raw = generate_uniform_cube(n, dim, 40.0, 9);
  const Quantized q = quantize_to_grid(raw, delta);

  Cluster cluster = test_cluster(3);
  mpc::scatter_points(cluster, q.points);
  const auto params = make_params(seed, n, dim, 1, delta);
  ASSERT_EQ(
      run_attempt(cluster, dim, params, 2, PathOutput::kRecordsAndLinks),
      0u);

  const auto links = mpc::gather_vector<KV>(cluster, "emb/links");
  EXPECT_FALSE(links.empty());
  for (const KV& link : links) {
    EXPECT_EQ(packed_level(link.key), packed_level(link.value) + 1);
  }
  // The root appears as a parent of every level-1 link.
  const std::uint64_t packed_root =
      pack_level_node(0, hybrid_root_id(seed));
  bool saw_root = false;
  for (const KV& link : links) {
    if (link.value == packed_root) saw_root = true;
  }
  EXPECT_TRUE(saw_root);
}

TEST(RunPartitionAttempt, ReportsFailuresWithStarvedGrids) {
  const std::size_t n = 40, dim = 4;
  const PointSet raw = generate_uniform_cube(n, dim, 40.0, 11);
  const Quantized q = quantize_to_grid(raw, 64);

  Cluster cluster = test_cluster(3);
  mpc::scatter_points(cluster, q.points);
  auto params = make_params(13, n, dim, 1, 64);
  params.num_grids = 1;  // hopeless coverage in 4 dims
  EXPECT_GT(run_attempt(cluster, dim, params, 2, PathOutput::kTreeEdges), 0u);
}

/// The point-major loop paths/compute and paths/records ran before the
/// grid-set-major hybrid_path_ids, kept as their oracle: every grid set
/// built up front, then each local point walked through every (level,
/// bucket) with one per-point assign() on its zero-padded bucket.
struct OraclePaths {
  std::vector<KV> edges, leaves, records, links;
  std::uint64_t failures = 0;
};

OraclePaths point_major_paths(const std::vector<std::uint64_t>& idx,
                              const std::vector<double>& data,
                              std::size_t dim, const PartitionParams& p) {
  const ScaleLadder ladder = hybrid_scale_ladder(dim, p.num_buckets, p.delta);
  std::vector<BallGrids> grids;
  for (std::size_t level = 1; level <= ladder.levels; ++level) {
    for (std::uint32_t j = 0; j < p.num_buckets; ++j) {
      grids.emplace_back(p.bucket_dim, ladder.scales[level], p.num_grids,
                         hybrid_grid_seed(p.seed, level, j));
    }
  }
  OraclePaths out;
  std::vector<double> bucket(p.bucket_dim);
  for (std::size_t local = 0; local < idx.size(); ++local) {
    const std::uint64_t point = idx[local];
    std::uint64_t id = hybrid_root_id(p.seed);
    for (std::size_t level = 1; level <= ladder.levels; ++level) {
      const std::uint64_t parent = id;
      for (std::uint32_t j = 0; j < p.num_buckets; ++j) {
        for (std::uint32_t t = 0; t < p.bucket_dim; ++t) {
          const std::size_t coord = j * p.bucket_dim + t;
          bucket[t] = coord < dim ? data[local * dim + coord] : 0.0;
        }
        std::uint64_t ball =
            grids[(level - 1) * p.num_buckets + j].assign(bucket);
        if (ball == kUncovered) {
          if (p.uncovered_singleton == 0) {
            ++out.failures;
            ball = 0;
          } else {
            ball = hash_combine(hash_combine(mix64(0xdeadull), point),
                                hash_combine(level, j));
          }
        }
        id = hash_combine(id, ball);
      }
      out.edges.push_back(KV{id, parent});
      out.records.push_back(KV{pack_level_node(level, id), point});
      out.links.push_back(
          KV{pack_level_node(level, id), pack_level_node(level - 1, parent)});
    }
    out.leaves.push_back(KV{point, id});
  }
  return out;
}

void expect_same_records(const std::vector<KV>& got,
                         const std::vector<KV>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " record " << i;
  }
}

TEST(PathStages, MatchPointMajorOracleRecordForRecord) {
  // Bucket dims that do not divide d (7 in 3 buckets of 3 pads the last
  // bucket with 2 zeros; 5 in 4 buckets of 2 leaves the last bucket all
  // padding), starved grid sets under kFail (placeholder ids and a
  // failure count) and under kSingleton (salted fallback ids).
  struct Case {
    std::size_t dim;
    std::uint32_t buckets;
    std::size_t grids;  // 0 = recommended
    std::uint32_t singleton;
  };
  for (const Case c : {Case{7, 3, 0, 0}, Case{5, 4, 0, 0}, Case{6, 2, 0, 1},
                       Case{7, 3, 2, 0}, Case{7, 3, 2, 1}, Case{5, 4, 3, 1}}) {
    SCOPED_TRACE("dim=" + std::to_string(c.dim) +
                 " r=" + std::to_string(c.buckets) +
                 " grids=" + std::to_string(c.grids) +
                 " singleton=" + std::to_string(c.singleton));
    const std::size_t n = 45;
    const std::uint64_t delta = 128, seed = 71 + c.dim;
    const Quantized q =
        quantize_to_grid(generate_uniform_cube(n, c.dim, 50.0, seed), delta);
    Cluster cluster = test_cluster(3);
    mpc::scatter_points(cluster, q.points);
    PartitionParams params = make_params(seed, n, c.dim, c.buckets, delta);
    if (c.grids > 0) params.num_grids = c.grids;
    params.uncovered_singleton = c.singleton;

    std::vector<OraclePaths> want;
    std::uint64_t want_failures = 0;
    for (std::uint32_t m = 0; m < cluster.num_machines(); ++m) {
      want.push_back(point_major_paths(keys::kIdx.get(cluster.store(m)),
                                       keys::kPts.get(cluster.store(m)),
                                       c.dim, params));
      want_failures += want.back().failures;
    }
    if (c.grids > 0 && c.singleton == 0) {
      EXPECT_GT(want_failures, 0u);
    }

    EXPECT_EQ(run_attempt(cluster, c.dim, params, 2, PathOutput::kTreeEdges),
              want_failures);
    for (std::uint32_t m = 0; m < cluster.num_machines(); ++m) {
      const auto& store = cluster.store(m);
      expect_same_records(keys::kEdges.get(store), want[m].edges, "edges");
      expect_same_records(keys::kLeaf.get(store), want[m].leaves, "leaves");
      EXPECT_EQ(keys::kFail.get(store), want[m].failures);
    }

    EXPECT_EQ(run_attempt(cluster, c.dim, params, 2,
                          PathOutput::kRecordsAndLinks),
              want_failures);
    for (std::uint32_t m = 0; m < cluster.num_machines(); ++m) {
      const auto& store = cluster.store(m);
      expect_same_records(keys::kNodes.get(store), want[m].records,
                          "records");
      expect_same_records(keys::kLinks.get(store), want[m].links, "links");
    }
  }
}

}  // namespace
}  // namespace mpte::detail
