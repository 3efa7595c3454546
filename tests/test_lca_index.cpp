#include "tree/lca_index.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/embedder.hpp"
#include "dyn/dynamic_embedder.hpp"
#include "geometry/generators.hpp"
#include "oracles.hpp"

namespace mpte {
namespace {

Hst sample_tree(std::size_t n, std::uint64_t seed) {
  const PointSet points = generate_uniform_cube(n, 4, 30.0, seed);
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = seed;
  auto result = embed(points, options);
  EXPECT_TRUE(result.ok());
  return std::move(result->tree);
}

TEST(LcaIndex, MatchesWalkingLcaEverywhere) {
  const Hst tree = sample_tree(80, 3);
  const LcaIndex index(tree);
  for (std::size_t p = 0; p < tree.num_points(); ++p) {
    for (std::size_t q = 0; q < tree.num_points(); ++q) {
      EXPECT_EQ(index.lca(p, q), walk_lca(tree, p, q))
          << "pair " << p << "," << q;
    }
  }
}

TEST(LcaIndex, MatchesWalkingDistanceEverywhere) {
  const Hst tree = sample_tree(60, 5);
  const LcaIndex index(tree);
  for (std::size_t p = 0; p < tree.num_points(); ++p) {
    for (std::size_t q = p; q < tree.num_points(); ++q) {
      EXPECT_NEAR(index.distance(p, q), tree.distance(p, q),
                  1e-9 * (1.0 + tree.distance(p, q)));
    }
  }
}

TEST(LcaIndex, SelfQueries) {
  const Hst tree = sample_tree(20, 7);
  const LcaIndex index(tree);
  for (std::size_t p = 0; p < tree.num_points(); ++p) {
    EXPECT_EQ(index.lca(p, p), tree.leaf(p));
    EXPECT_EQ(index.distance(p, p), 0.0);
  }
}

TEST(LcaIndex, WeightDepthConsistent) {
  const Hst tree = sample_tree(40, 9);
  const LcaIndex index(tree);
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    EXPECT_NEAR(index.weight_depth(i), walk_depth_weight(tree, i), 1e-12);
  }
  EXPECT_EQ(index.depth(tree.root()), 0u);
}

TEST(LcaIndex, RandomLargeTreeSpotChecks) {
  const Hst tree = sample_tree(500, 11);
  const LcaIndex index(tree);
  Rng rng(13);
  for (int t = 0; t < 2000; ++t) {
    const std::size_t p = rng.uniform_u64(500);
    const std::size_t q = rng.uniform_u64(500);
    EXPECT_EQ(index.lca(p, q), walk_lca(tree, p, q));
  }
}

TEST(LcaIndex, TinyTree) {
  // Two points: root + two leaves.
  const Hst tree = sample_tree(2, 15);
  const LcaIndex index(tree);
  EXPECT_EQ(index.distance(0, 1), tree.distance(0, 1));
}

// Exhaustively checks a freshly built index against the O(depth) Hst
// walk oracle on the same tree.
void expect_index_matches_walk(const Hst& tree) {
  const LcaIndex index(tree);
  for (std::size_t p = 0; p < tree.num_points(); ++p) {
    for (std::size_t q = p; q < tree.num_points(); ++q) {
      EXPECT_EQ(index.lca(p, q), walk_lca(tree, p, q))
          << "pair " << p << "," << q;
      EXPECT_NEAR(index.distance(p, q), tree.distance(p, q),
                  1e-9 * (1.0 + tree.distance(p, q)));
    }
  }
}

// The serving tier rebuilds an LcaIndex per member on every dynamic epoch
// publish, so the index must stay correct on trees produced by
// materialize() after arbitrary insert/erase sequences — not only on
// trees straight out of embed(). Mutate a DynamicEmbedder step by step
// and oracle-check the index over every intermediate tree.
TEST(LcaIndex, MatchesWalkOracleOnMutatedTrees) {
  const PointSet initial = generate_uniform_cube(24, 4, 30.0, 21);
  dyn::DynOptions options;
  options.seed = 21;
  auto dynamic = dyn::DynamicEmbedder::create(initial, options);
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().to_string();

  Rng rng(17);
  const PointSet pool = generate_uniform_cube(64, 4, 30.0, 22);
  std::vector<std::uint64_t> live;
  for (std::uint64_t id = 0; id < initial.size(); ++id) live.push_back(id);
  std::size_t next_pool = 0;
  for (int step = 0; step < 12; ++step) {
    if (next_pool < pool.size() && (live.size() <= 4 || rng.uniform_u64(3))) {
      const auto id = dynamic->insert(pool[next_pool++]);
      ASSERT_TRUE(id.ok()) << id.status().to_string();
      live.push_back(*id);
    } else {
      const std::size_t victim = rng.uniform_u64(live.size());
      ASSERT_TRUE(dynamic->erase(live[victim]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    auto materialized = dynamic->materialize();
    ASSERT_TRUE(materialized.ok()) << materialized.status().to_string();
    expect_index_matches_walk(materialized->tree);
  }
}

}  // namespace
}  // namespace mpte
