// The hierarchically well-separated tree (HST) produced by an embedding.
//
// Nodes correspond to clusters of the hierarchical partitioning; each edge
// into a level-i node carries the weight fixed by the partitioning method
// (2*sqrt(r)*w_i hybrid, sqrt(d)*w_i grid). Every input point owns one leaf
// (attached with weight 0 under the cluster where its chain froze), and
// dist_T(p, q) is the weight of the unique leaf-to-leaf path — the tree
// metric of Theorems 1–2.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"

namespace mpte {

/// One HST node. Parents always precede children in the node array
/// (topological order), with the root at index 0.
struct HstNode {
  /// Cluster hash id from the partitioning (diagnostics only).
  std::uint64_t cluster_id = 0;
  /// Parent node index, or -1 for the root.
  std::int32_t parent = -1;
  /// Hierarchy level (root 0; leaves sit one past their cluster's level).
  std::uint32_t level = 0;
  /// Weight of the edge to the parent (0 for the root and for leaf hooks).
  double edge_weight = 0.0;
  /// Point index if this is a leaf, else -1.
  std::int64_t point = -1;
  /// Number of points in this node's subtree.
  std::uint32_t subtree_size = 0;
};

/// Immutable HST over n points. Built by tree/embedding_builder.
class Hst {
 public:
  Hst(std::vector<HstNode> nodes, std::vector<std::uint32_t> leaf_of_point);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_points() const { return leaf_of_point_.size(); }

  const HstNode& node(std::size_t i) const { return nodes_[i]; }
  std::size_t root() const { return 0; }

  /// Node index of point p's leaf.
  std::size_t leaf(std::size_t point) const { return leaf_of_point_[point]; }

  /// Children of node i, in construction order.
  const std::vector<std::uint32_t>& children(std::size_t i) const {
    return children_[i];
  }

  /// Tree-metric distance dist_T(p, q) between two points: the weight of
  /// the leaf-to-leaf path. O(depth).
  double distance(std::size_t p, std::size_t q) const;

  /// Maximum node depth in edges.
  std::size_t depth() const;

  /// Structural invariants: topological parent order, root at 0, levels
  /// strictly increase along edges, non-root weights finite and >= 0,
  /// exactly one leaf per point, subtree sizes consistent.
  Status validate() const;

 private:
  std::vector<HstNode> nodes_;
  std::vector<std::uint32_t> leaf_of_point_;
  std::vector<std::vector<std::uint32_t>> children_;
};

}  // namespace mpte
