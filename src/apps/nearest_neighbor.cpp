#include "apps/nearest_neighbor.hpp"

#include <limits>

#include "common/status.hpp"

namespace mpte {
namespace {

/// Appends the point indices of `node`'s subtree to `out` (DFS over the
/// children lists), stopping once `cap` indices are collected.
void collect_subtree_points(const Hst& tree, std::size_t node,
                            std::size_t cap,
                            std::vector<std::size_t>& out) {
  if (out.size() >= cap) return;
  const HstNode& n = tree.node(node);
  if (n.point >= 0) {
    out.push_back(static_cast<std::size_t>(n.point));
    return;
  }
  for (const std::uint32_t child : tree.children(node)) {
    collect_subtree_points(tree, child, cap, out);
    if (out.size() >= cap) return;
  }
}

}  // namespace

NeighborResult tree_nearest_neighbor(const Hst& tree, const PointSet& points,
                                     std::size_t query, std::size_t budget) {
  if (points.size() < 2) {
    throw MpteError("tree_nearest_neighbor: need at least two points");
  }
  if (tree.num_points() != points.size()) {
    throw MpteError("tree_nearest_neighbor: tree/point count mismatch");
  }
  budget = std::max<std::size_t>(budget, 2);

  // Harvest candidates outward from the query's leaf: at each ancestor,
  // collect the siblings' subtrees (the query's own subtree was already
  // harvested), so the closest clusters fill the budget first.
  std::vector<std::size_t> candidates;
  candidates.reserve(budget);
  std::size_t node = tree.leaf(query);
  std::size_t harvested = node;
  while (candidates.size() < budget && tree.node(node).parent >= 0) {
    node = static_cast<std::size_t>(tree.node(node).parent);
    for (const std::uint32_t child : tree.children(node)) {
      if (child == harvested) continue;
      collect_subtree_points(tree, child, budget, candidates);
      if (candidates.size() >= budget) break;
    }
    harvested = node;
  }

  NeighborResult best;
  best.distance = std::numeric_limits<double>::infinity();
  for (const std::size_t candidate : candidates) {
    if (candidate == query) continue;
    ++best.candidates;
    const double d = l2_distance(points[query], points[candidate]);
    if (d < best.distance) {
      best.distance = d;
      best.neighbor = candidate;
    }
  }
  return best;
}

NeighborResult exact_nearest_neighbor(const PointSet& points,
                                      std::size_t query) {
  if (points.size() < 2) {
    throw MpteError("exact_nearest_neighbor: need at least two points");
  }
  NeighborResult best;
  best.distance = std::numeric_limits<double>::infinity();
  for (std::size_t candidate = 0; candidate < points.size(); ++candidate) {
    if (candidate == query) continue;
    ++best.candidates;
    const double d = l2_distance(points[query], points[candidate]);
    if (d < best.distance) {
      best.distance = d;
      best.neighbor = candidate;
    }
  }
  return best;
}

}  // namespace mpte
