#include "tree/embedding_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"
#include "plan_hierarchy.hpp"
#include "tree/hst_io.hpp"
#include "tree/lca_index.hpp"

namespace mpte {
namespace {

Hierarchy tiny_hierarchy() {
  // 4 points; level 1 splits {0,1} | {2,3}; level 2 splits {0}|{1} and
  // keeps {2,3} together; level 3 chains below singletons and splits
  // {2}|{3}.
  Hierarchy h;
  h.cluster_of_point = {
      {1, 1, 1, 1},          // root
      {10, 10, 20, 20},      // level 1
      {11, 12, 21, 21},      // level 2
      {13, 14, 22, 23},      // level 3 (chains 11->13, 12->14)
  };
  h.scales = {8, 4, 2, 1};
  h.edge_weight = {0, 8, 4, 2};
  h.num_buckets = 1;
  return h;
}

TEST(BuildHst, PrunesSingletonChains) {
  const Hst tree = build_hst(tiny_hierarchy());
  EXPECT_TRUE(tree.validate().ok());
  EXPECT_EQ(tree.num_points(), 4u);
  // Nodes: root, 10, 20, 11, 12, 21(stays: size 2), 22, 23 + 4 leaves.
  // Chains 11->13 and 12->14 are pruned (13, 14 dropped).
  EXPECT_EQ(tree.num_nodes(), 8u + 4u);
  // Point 0's leaf hangs under node 11 at level 2 (weight 0 edge).
  const auto leaf0 = tree.leaf(0);
  EXPECT_EQ(tree.node(leaf0).edge_weight, 0.0);
  EXPECT_EQ(tree.node(tree.node(leaf0).parent).level, 2u);
}

TEST(BuildHst, DistancesFollowSeparationLevel) {
  const Hst tree = build_hst(tiny_hierarchy());
  // 0 and 1 separate at level 2: each pays w[2]=4 up to their level-1
  // cluster. Distance = 4 + 4.
  EXPECT_EQ(tree.distance(0, 1), 8.0);
  // 2 and 3 separate at level 3: 2 + 2.
  EXPECT_EQ(tree.distance(2, 3), 4.0);
  // 0 and 2 separate at level 1: 0's side 4+8, 2's side 2+4+8.
  EXPECT_EQ(tree.distance(0, 2), (4.0 + 8.0) + (2.0 + 4.0 + 8.0));
}

TEST(BuildHst, DuplicatePointsShareBottomCluster) {
  Hierarchy h;
  h.cluster_of_point = {
      {1, 1, 1},
      {10, 20, 20},
      {11, 21, 21},  // points 1,2 identical: never separate
  };
  h.scales = {4, 2, 1};
  h.edge_weight = {0, 4, 2};
  const Hst tree = build_hst(h);
  EXPECT_TRUE(tree.validate().ok());
  EXPECT_EQ(tree.distance(1, 2), 0.0);  // both weight-0 leaves, same parent
  EXPECT_GT(tree.distance(0, 1), 0.0);
}

TEST(BuildHst, EmptyHierarchyThrows) {
  EXPECT_THROW(build_hst(Hierarchy{}), MpteError);
}

TEST(BuildHst, RootOnlyHierarchy) {
  Hierarchy h;
  h.cluster_of_point = {{1, 1}};
  h.scales = {2};
  h.edge_weight = {0};
  const Hst tree = build_hst(h);
  EXPECT_TRUE(tree.validate().ok());
  EXPECT_EQ(tree.distance(0, 1), 0.0);
}

TEST(AssemblePruned, LeafAttachesAtTopmostSingletonAncestor) {
  // Chains root -> a -> b and root -> a' -> b', where a and a' already
  // isolate points 0 and 1; the edges come in no particular order.
  const std::vector<TreeEdge> edges = {{11, 10}, {20, 1}, {21, 20}, {10, 1}};
  const std::vector<TreeLeaf> leaves = {{1, 21}, {0, 11}};
  const std::vector<double> weights = {0, 8, 4};
  const Hst tree = assemble_tree(edges, leaves, 1, 2, weights);
  EXPECT_TRUE(tree.validate().ok());
  // Chains pruned: root + 2 singleton nodes + 2 leaves.
  ASSERT_EQ(tree.num_nodes(), 5u);
  EXPECT_EQ(tree.node(1).cluster_id, 10u);
  EXPECT_EQ(tree.node(2).cluster_id, 20u);
  EXPECT_EQ(tree.node(tree.leaf(0)).parent, 1);
  EXPECT_EQ(tree.node(tree.leaf(1)).parent, 2);
  EXPECT_EQ(tree.distance(0, 1), 8.0 + 8.0);
}

TEST(HstShape, CountsMatch) {
  const Hst tree = build_hst(tiny_hierarchy());
  const HstShape shape = hst_shape(tree);
  EXPECT_EQ(shape.nodes, tree.num_nodes());
  EXPECT_EQ(shape.leaves, 4u);
  EXPECT_EQ(shape.internal_nodes, shape.nodes - 4u);
  EXPECT_GE(shape.max_branching, 2u);
  EXPECT_EQ(shape.depth, tree.depth());
}

TEST(BuildHst, LargeRandomHierarchyValidates) {
  const PointSet raw = generate_uniform_cube(200, 4, 50.0, 7);
  const Quantized q = quantize_to_grid(raw, 256);
  PartitionOptions options;
  options.num_buckets = 2;
  const auto hierarchy =
      plan_and_build(q.points, PartitionMethod::kHybrid, 256, 11, options);
  ASSERT_TRUE(hierarchy.ok());
  const Hst tree = build_hst(*hierarchy);
  EXPECT_TRUE(tree.validate().ok());
  EXPECT_EQ(tree.num_points(), 200u);
  EXPECT_EQ(tree.node(tree.root()).subtree_size, 200u);
}

// ---------------------------------------------------------------------------
// Oracles: the two assemblies assemble_tree replaced. Each numbers an
// unpruned cluster tree its own way, and both pruned it with the same pass.

/// The unpruned cluster tree, in topological node order.
struct RawTree {
  struct RawNode {
    std::uint64_t key = 0;
    std::int32_t parent = -1;
    std::uint32_t level = 0;
  };
  std::vector<RawNode> nodes;
  /// Per point: index of its deepest-level cluster node.
  std::vector<std::uint32_t> bottom_of_point;
};

/// The old pruning pass: each point's leaf hangs under its topmost
/// ancestor holding only that point; kept nodes stay in raw order, then
/// the leaves follow in point order.
Hst oracle_prune(const RawTree& raw, const std::vector<double>& edge_weight) {
  const std::size_t raw_count = raw.nodes.size();
  const std::size_t n = raw.bottom_of_point.size();
  std::vector<std::uint32_t> count(raw_count, 0);
  for (const std::uint32_t bottom : raw.bottom_of_point) ++count[bottom];
  for (std::size_t i = raw_count; i-- > 1;) {
    count[static_cast<std::size_t>(raw.nodes[i].parent)] += count[i];
  }
  std::vector<std::uint32_t> freeze(n);
  for (std::size_t p = 0; p < n; ++p) {
    std::size_t cur = raw.bottom_of_point[p];
    while (raw.nodes[cur].parent >= 0 &&
           count[static_cast<std::size_t>(raw.nodes[cur].parent)] == 1) {
      cur = static_cast<std::size_t>(raw.nodes[cur].parent);
    }
    freeze[p] = static_cast<std::uint32_t>(cur);
  }
  std::vector<bool> keep(raw_count, false);
  for (std::size_t p = 0; p < n; ++p) {
    std::size_t cur = freeze[p];
    while (!keep[cur]) {
      keep[cur] = true;
      if (raw.nodes[cur].parent < 0) break;
      cur = static_cast<std::size_t>(raw.nodes[cur].parent);
    }
  }
  std::vector<std::uint32_t> new_index(raw_count, 0);
  std::vector<HstNode> nodes;
  for (std::size_t i = 0; i < raw_count; ++i) {
    if (!keep[i]) continue;
    HstNode node;
    node.cluster_id = raw.nodes[i].key;
    node.level = raw.nodes[i].level;
    if (raw.nodes[i].parent >= 0) {
      node.parent = static_cast<std::int32_t>(
          new_index[static_cast<std::size_t>(raw.nodes[i].parent)]);
      node.edge_weight = edge_weight[node.level];
    }
    new_index[i] = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(node);
  }
  std::vector<std::uint32_t> leaf_of_point(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t parent = new_index[freeze[p]];
    HstNode leaf;
    leaf.cluster_id = nodes[parent].cluster_id;
    leaf.parent = static_cast<std::int32_t>(parent);
    leaf.level = nodes[parent].level + 1;
    leaf.point = static_cast<std::int64_t>(p);
    leaf_of_point[p] = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(leaf);
  }
  for (std::size_t i = nodes.size(); i-- > 0;) {
    if (nodes[i].point >= 0) nodes[i].subtree_size += 1;
    if (nodes[i].parent >= 0) {
      nodes[static_cast<std::size_t>(nodes[i].parent)].subtree_size +=
          nodes[i].subtree_size;
    }
  }
  return Hst(std::move(nodes), std::move(leaf_of_point));
}

/// The old sequential build_hst: level by level, a hash map numbers each
/// cluster id at its first appearance in point order.
Hst hash_map_build_hst(const Hierarchy& hierarchy) {
  const std::size_t n = hierarchy.num_points();
  const std::size_t levels = hierarchy.levels();
  RawTree raw;
  std::unordered_map<std::uint64_t, std::uint32_t> node_of_cluster;
  raw.nodes.push_back(
      RawTree::RawNode{hierarchy.cluster_of_point[0][0], -1, 0});
  node_of_cluster.emplace(hierarchy.cluster_of_point[0][0], 0);
  for (std::size_t level = 1; level < levels; ++level) {
    const auto& prev = hierarchy.cluster_of_point[level - 1];
    const auto& curr = hierarchy.cluster_of_point[level];
    for (std::size_t i = 0; i < n; ++i) {
      if (node_of_cluster.contains(curr[i])) continue;
      const auto index = static_cast<std::uint32_t>(raw.nodes.size());
      raw.nodes.push_back(RawTree::RawNode{
          curr[i], static_cast<std::int32_t>(node_of_cluster.at(prev[i])),
          static_cast<std::uint32_t>(level)});
      node_of_cluster.emplace(curr[i], index);
    }
  }
  raw.bottom_of_point.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    raw.bottom_of_point[i] =
        node_of_cluster.at(hierarchy.cluster_of_point[levels - 1][i]);
  }
  return oracle_prune(raw, hierarchy.edge_weight);
}

/// The old MPC readout: a hash-map BFS over the edges, children sorted
/// when their parent is expanded, and a leaf on its id's first BFS
/// occurrence.
Hst hash_map_mpc_tree(const std::vector<TreeEdge>& edges,
                      const std::vector<TreeLeaf>& leaves,
                      std::uint64_t root_id, std::size_t n,
                      const std::vector<double>& edge_weight) {
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> children;
  for (const TreeEdge& edge : edges) {
    auto& kids = children[edge.parent];
    if (std::find(kids.begin(), kids.end(), edge.child) == kids.end()) {
      kids.push_back(edge.child);
    }
  }
  RawTree raw;
  std::unordered_map<std::uint64_t, std::uint32_t> index_of;
  raw.nodes.push_back(RawTree::RawNode{root_id, -1, 0});
  index_of.emplace(root_id, 0);
  for (std::size_t head = 0; head < raw.nodes.size(); ++head) {
    const auto it = children.find(raw.nodes[head].key);
    if (it == children.end()) continue;
    std::vector<std::uint64_t> kids = it->second;
    std::sort(kids.begin(), kids.end());
    for (const std::uint64_t kid : kids) {
      const auto index = static_cast<std::uint32_t>(raw.nodes.size());
      raw.nodes.push_back(RawTree::RawNode{
          kid, static_cast<std::int32_t>(head), raw.nodes[head].level + 1});
      index_of.emplace(kid, index);
    }
  }
  raw.bottom_of_point.assign(n, 0);
  for (const TreeLeaf& leaf : leaves) {
    raw.bottom_of_point[leaf.point] = index_of.at(leaf.id);
  }
  return oracle_prune(raw, edge_weight);
}

/// Weights for the random trees below: deep enough for every path.
const std::vector<double> kWeights = {0, 64, 32, 16, 8, 4, 2, 1};

/// A random cluster tree: `levels` levels below the root, 1–4 children per
/// node, random 64-bit ids, edges shuffled (the MPC gather concatenates
/// machines in no id order), and every point on a random deepest node.
struct RandomTree {
  std::uint64_t root = 0;
  std::vector<TreeEdge> edges;
  std::vector<TreeLeaf> leaves;
  std::vector<std::uint64_t> bottom;
};

RandomTree random_tree(std::uint64_t seed, std::size_t levels,
                       std::size_t n) {
  Rng rng(seed);
  RandomTree tree;
  tree.root = rng();
  std::vector<std::uint64_t> frontier{tree.root};
  for (std::size_t level = 0; level < levels; ++level) {
    std::vector<std::uint64_t> next;
    for (const std::uint64_t parent : frontier) {
      const std::size_t kids = 1 + rng.uniform_u64(4);
      for (std::size_t k = 0; k < kids; ++k) {
        next.push_back(rng());
        tree.edges.push_back(TreeEdge{next.back(), parent});
      }
    }
    frontier = std::move(next);
  }
  tree.bottom = frontier;
  for (std::size_t p = 0; p < n; ++p) {
    tree.leaves.push_back(
        TreeLeaf{p, frontier[rng.uniform_u64(frontier.size())]});
  }
  for (std::size_t i = tree.edges.size(); i > 1; --i) {
    std::swap(tree.edges[i - 1], tree.edges[rng.uniform_u64(i)]);
  }
  return tree;
}

Hst assemble(const RandomTree& tree, std::size_t n) {
  return assemble_tree(tree.edges, tree.leaves, tree.root, n, kWeights);
}

Hst oracle(const RandomTree& tree, std::size_t n) {
  return hash_map_mpc_tree(tree.edges, tree.leaves, tree.root, n, kWeights);
}

TEST(AssembleRawTree, MatchesHashMapBfs) {
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    const RandomTree tree = random_tree(seed, 5, 300);
    const Hst got = assemble(tree, 300);
    EXPECT_TRUE(got.validate().ok());
    EXPECT_EQ(hst_to_bytes(got), hst_to_bytes(oracle(tree, 300)))
        << "seed " << seed;
  }
}

TEST(AssembleRawTree, IdUnderTwoParentsAndUnreachableEdgesMatchHashMapBfs) {
  RandomTree tree = random_tree(9, 4, 200);
  // An id reached under two parents appears under both (with its whole
  // subtree); a leaf on it attaches to its first BFS occurrence.
  ASSERT_GE(tree.bottom.size(), 2u);
  const std::uint64_t shared = tree.bottom.front();
  tree.edges.push_back(TreeEdge{shared, tree.bottom.back()});
  tree.edges.push_back(TreeEdge{12345, shared});
  tree.leaves.push_back(TreeLeaf{200, shared});
  tree.leaves.push_back(TreeLeaf{201, 12345});
  // Edges under a parent the BFS never reaches are ignored.
  tree.edges.push_back(TreeEdge{777, 888});
  tree.edges.push_back(TreeEdge{999, 777});
  // A point whose leaf names the root, and one with no leaf record.
  tree.leaves.push_back(TreeLeaf{202, tree.root});
  const Hst got = assemble(tree, 204);
  EXPECT_TRUE(got.validate().ok());
  EXPECT_EQ(hst_to_bytes(got), hst_to_bytes(oracle(tree, 204)));
  EXPECT_EQ(got.node(got.leaf(202)).parent, 0);
  EXPECT_EQ(got.node(got.leaf(203)).parent, 0);
}

TEST(AssembleRawTree, LeafOutsideTheGatheredTreeThrows) {
  const RandomTree tree = random_tree(5, 3, 50);
  // An id no edge names.
  std::vector<TreeLeaf> leaves = tree.leaves;
  leaves.push_back(TreeLeaf{10, 0xdeadbeefull});
  EXPECT_THROW(assemble_tree(tree.edges, leaves, tree.root, 50, kWeights),
               MpteError);
  // An id that is the child of an edge the BFS never reaches.
  std::vector<TreeEdge> edges = tree.edges;
  edges.push_back(TreeEdge{4242, 4141});
  leaves = tree.leaves;
  leaves.push_back(TreeLeaf{11, 4242});
  EXPECT_THROW(assemble_tree(edges, leaves, tree.root, 50, kWeights),
               MpteError);
  // A point index past the end.
  leaves = tree.leaves;
  leaves.push_back(TreeLeaf{50, tree.bottom[0]});
  EXPECT_THROW(assemble_tree(tree.edges, leaves, tree.root, 50, kWeights),
               MpteError);
}

TEST(AssembleTree, RepeatedEdgesInAnyOrderBuildOneTree) {
  const RandomTree tree = random_tree(13, 5, 120);
  const auto want = hst_to_bytes(assemble(tree, 120));
  // Every edge twice, reversed: the MPC gather's deduplicated set and the
  // sequential one-edge-per-point list must give the same bytes.
  std::vector<TreeEdge> edges = tree.edges;
  edges.insert(edges.end(), tree.edges.begin(), tree.edges.end());
  std::reverse(edges.begin(), edges.end());
  std::vector<TreeLeaf> leaves = tree.leaves;
  std::reverse(leaves.begin(), leaves.end());
  EXPECT_EQ(hst_to_bytes(
                assemble_tree(edges, leaves, tree.root, 120, kWeights)),
            want);
}

TEST(AssembleTree, PathDeeperThanTheLadderThrows) {
  const RandomTree tree = random_tree(17, 5, 40);
  // Five levels below the root need weights for levels 0..5.
  const std::vector<double> six(kWeights.begin(), kWeights.begin() + 6);
  const std::vector<double> five(kWeights.begin(), kWeights.begin() + 5);
  EXPECT_TRUE(assemble_tree(tree.edges, tree.leaves, tree.root, 40, six)
                  .validate()
                  .ok());
  EXPECT_THROW(assemble_tree(tree.edges, tree.leaves, tree.root, 40, five),
               MpteError);
  // A cycle of ids is a path without end: it throws instead of looping.
  const std::vector<TreeEdge> cycle = {{2, 1}, {3, 2}, {1, 3}};
  EXPECT_THROW(assemble_tree(cycle, {{0, 2}, {1, 3}}, 1, 2, kWeights),
               MpteError);
}

TEST(AssembleTree, NoPointsThrows) {
  EXPECT_THROW(assemble_tree({}, {}, 1, 0, kWeights), MpteError);
}

// ---------------------------------------------------------------------------
// build_hst against the hash-map numbering: the node order changed, so
// the node multiset and every pairwise LcaIndex distance must match, bit
// for bit.

/// Node as (cluster id, level, weight bits, point, subtree size, parent's
/// cluster id and level); the root's parent is (0, UINT32_MAX).
using NodeKey = std::tuple<std::uint64_t, std::uint32_t, std::uint64_t,
                           std::int64_t, std::uint32_t, std::uint64_t,
                           std::uint32_t>;

std::vector<NodeKey> node_multiset(const Hst& tree) {
  std::vector<NodeKey> keys;
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const HstNode& node = tree.node(i);
    std::uint64_t parent_id = 0;
    std::uint32_t parent_level = std::numeric_limits<std::uint32_t>::max();
    if (node.parent >= 0) {
      parent_id = tree.node(static_cast<std::size_t>(node.parent)).cluster_id;
      parent_level = tree.node(static_cast<std::size_t>(node.parent)).level;
    }
    keys.emplace_back(node.cluster_id, node.level,
                      std::bit_cast<std::uint64_t>(node.edge_weight),
                      node.point, node.subtree_size, parent_id, parent_level);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void expect_same_metric_as_hash_map(const Hierarchy& hierarchy) {
  const Hst got = build_hst(hierarchy);
  const Hst want = hash_map_build_hst(hierarchy);
  ASSERT_TRUE(got.validate().ok());
  ASSERT_EQ(got.num_points(), want.num_points());
  EXPECT_EQ(node_multiset(got), node_multiset(want));
  const LcaIndex a(got);
  const LcaIndex b(want);
  std::size_t mismatches = 0;
  for (std::size_t p = 0; p < got.num_points(); ++p) {
    for (std::size_t q = p + 1; q < got.num_points(); ++q) {
      mismatches += std::bit_cast<std::uint64_t>(a.distance(p, q)) !=
                    std::bit_cast<std::uint64_t>(b.distance(p, q));
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// A random laminar hierarchy: every level splits each cluster by a label
/// in [0, 3), and each point after the first few copies an earlier
/// point's whole column with probability `duplicates`.
Hierarchy random_laminar(std::uint64_t seed, std::size_t n,
                         std::size_t levels, double duplicates) {
  Rng rng(seed);
  Hierarchy h;
  h.cluster_of_point.assign(levels + 1, std::vector<std::uint64_t>(n));
  const std::uint64_t root = rng();
  for (std::size_t i = 0; i < n; ++i) {
    const bool copy = i >= 4 && rng.uniform() < duplicates;
    const std::size_t source = copy ? rng.uniform_u64(i) : i;
    h.cluster_of_point[0][i] = root;
    for (std::size_t level = 1; level <= levels; ++level) {
      h.cluster_of_point[level][i] =
          copy ? h.cluster_of_point[level][source]
               : hash_combine(h.cluster_of_point[level - 1][i],
                              rng.uniform_u64(3));
    }
  }
  h.edge_weight.assign(levels + 1, 0.0);
  for (std::size_t level = 1; level <= levels; ++level) {
    h.edge_weight[level] = std::ldexp(1.0, static_cast<int>(levels - level));
  }
  return h;
}

/// Quantized uniform points with every fifth one a copy of its
/// predecessor.
PointSet points_with_duplicates(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  PointSet points = quantize_to_grid(
                        generate_uniform_cube(n, dim, 40.0, seed), 128)
                        .points;
  for (std::size_t i = 5; i < n; i += 5) {
    std::copy(points[i - 1].begin(), points[i - 1].end(), points[i].begin());
  }
  return points;
}

TEST(HashMapOracle, RandomLaminarHierarchies) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    expect_same_metric_as_hash_map(random_laminar(seed, 150, 7, 0.0));
    expect_same_metric_as_hash_map(random_laminar(seed, 150, 7, 0.2));
  }
  // Few points over many levels: mostly singleton chains.
  expect_same_metric_as_hash_map(random_laminar(4, 6, 12, 0.0));
}

TEST(HashMapOracle, RootOnlyHierarchy) {
  Hierarchy h;
  h.cluster_of_point = {{7, 7, 7, 7, 7}};
  h.edge_weight = {0};
  expect_same_metric_as_hash_map(h);
}

TEST(HashMapOracle, GridBallAndHybridHierarchies) {
  const PointSet points = points_with_duplicates(120, 3, 21);
  const auto grid = build_grid_hierarchy(points, 128, 5);
  ASSERT_TRUE(grid.ok());
  expect_same_metric_as_hash_map(*grid);

  const auto ball = plan_and_build(points, PartitionMethod::kBall, 128, 6);
  ASSERT_TRUE(ball.ok());
  expect_same_metric_as_hash_map(*ball);

  PartitionOptions options;
  options.num_buckets = 3;
  const auto hybrid =
      plan_and_build(points, PartitionMethod::kHybrid, 128, 6, options);
  ASSERT_TRUE(hybrid.ok());
  expect_same_metric_as_hash_map(*hybrid);
}

TEST(HashMapOracle, SingletonFallbackIds) {
  // Two grids per set leave many points uncovered: their private
  // kSingleton ids run through the hierarchy.
  const PointSet points = points_with_duplicates(100, 4, 23);
  PartitionOptions options;
  options.num_grids = 2;
  options.uncovered = UncoveredPolicy::kSingleton;
  const auto ball =
      plan_and_build(points, PartitionMethod::kBall, 128, 8, options);
  ASSERT_TRUE(ball.ok());
  ASSERT_GT(ball->uncovered_events, 0u);
  expect_same_metric_as_hash_map(*ball);
}

}  // namespace
}  // namespace mpte
