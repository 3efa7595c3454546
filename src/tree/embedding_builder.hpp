// Builds the HST from a hierarchical partitioning (the tree-construction
// half of Algorithms 1 and 2).
//
// Algorithm 2's tree is the deduplicated union of the points' root-to-leaf
// cluster-id paths, and Algorithm 1 stops splitting once |C(v)| <= 1.
// assemble_tree does both, and it is the only routine that does: embed
// (through build_hst), every EmbeddingEnsemble member, dyn materialize and
// mpc_embed's readout all hand it their paths as (child id, parent id)
// edges plus one (point, deepest id) leaf record per point. A seed fixes
// the paths, so it fixes the tree byte for byte (hst_to_bytes), whichever
// pipeline computed them.
//
// Node order: the kept cluster nodes in BFS order from the root, each
// node's children in ascending cluster id, then one leaf per point in
// point order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "partition/hybrid_partition.hpp"
#include "tree/hst.hpp"

namespace mpte {

/// One edge of the cluster tree: a cluster id and its parent's id.
struct TreeEdge {
  std::uint64_t child;
  std::uint64_t parent;

  friend bool operator==(const TreeEdge&, const TreeEdge&) = default;
};

/// A point and the id of its deepest cluster.
struct TreeLeaf {
  std::uint64_t point;
  std::uint64_t id;
};

/// The one tree assembly. Grows the cluster tree from `root_id` by BFS
/// over `edges` (any order, repeats allowed), each node's children in
/// ascending id; an id reached under two parents appears under both, and
/// edges under a parent the BFS never reaches are ignored. A leaf record
/// puts its point on the first BFS occurrence of its id; a point without
/// one sits at the root, and duplicate points share their bottom node.
/// Then it prunes as Algorithm 1 does: each point's leaf hangs (weight 0)
/// under its topmost ancestor holding only that point, or under its
/// bottom node when duplicates never separate, and the chains below are
/// dropped. The edge entering a level-l node weighs edge_weight[l].
///
/// Throws MpteError when num_points is 0, a leaf names a point
/// >= num_points or an id the BFS never reaches, a path runs deeper than
/// edge_weight, or there are more than INT32_MAX distinct edges.
Hst assemble_tree(std::vector<TreeEdge> edges, std::vector<TreeLeaf> leaves,
                  std::uint64_t root_id, std::size_t num_points,
                  std::span<const double> edge_weight);

/// The tree of a Hierarchy (sequential path): one edge per (level >= 1,
/// point) and each point's last-level id as its leaf, into assemble_tree.
Hst build_hst(const Hierarchy& hierarchy);

/// Summary shape statistics for reporting.
struct HstShape {
  std::size_t nodes = 0;
  std::size_t internal_nodes = 0;
  std::size_t leaves = 0;
  std::size_t depth = 0;
  std::size_t max_branching = 0;
};

HstShape hst_shape(const Hst& tree);

}  // namespace mpte
