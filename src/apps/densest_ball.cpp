#include "apps/densest_ball.hpp"

#include <algorithm>
#include <vector>

#include "common/status.hpp"

namespace mpte {

DensestBallResult densest_ball_exact(const PointSet& points, double radius) {
  DensestBallResult best;
  best.diameter = 2.0 * radius;
  const double radius_sq = radius * radius;
  for (std::size_t c = 0; c < points.size(); ++c) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (l2_distance_squared(points[c], points[i]) <= radius_sq) ++count;
    }
    if (count > best.count) {
      best.count = count;
      best.center = c;
    }
  }
  return best;
}

DensestBallResult densest_ball_tree(const Hst& tree, double max_diameter) {
  if (max_diameter < 0.0) {
    throw MpteError("densest_ball_tree: negative diameter");
  }
  // Height in tree-metric weight below each node; children follow parents
  // in index order, so a reverse sweep sees children first.
  std::vector<double> down(tree.num_nodes(), 0.0);
  for (std::size_t i = tree.num_nodes(); i-- > 1;) {
    const HstNode& node = tree.node(i);
    const auto parent = static_cast<std::size_t>(node.parent);
    down[parent] = std::max(down[parent], down[i] + node.edge_weight);
  }

  DensestBallResult best;
  best.count = 0;
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    // Any two leaves below i are within 2*down[i] in the tree metric, and
    // by domination also in Euclidean distance.
    const double bound = 2.0 * down[i];
    if (bound > max_diameter) continue;
    const std::size_t count = tree.node(i).subtree_size;
    if (count > best.count) {
      best.count = count;
      best.center = i;
      best.diameter = bound;
    }
  }
  return best;
}

}  // namespace mpte
