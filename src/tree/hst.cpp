#include "tree/hst.hpp"

#include <algorithm>
#include <cmath>

namespace mpte {

Hst::Hst(std::vector<HstNode> nodes, std::vector<std::uint32_t> leaf_of_point)
    : nodes_(std::move(nodes)), leaf_of_point_(std::move(leaf_of_point)) {
  if (nodes_.empty()) throw MpteError("Hst: no nodes");
  children_.resize(nodes_.size());
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const std::int32_t parent = nodes_[i].parent;
    if (parent < 0 || static_cast<std::size_t>(parent) >= i) {
      throw MpteError("Hst: nodes must be in topological order");
    }
    children_[parent].push_back(static_cast<std::uint32_t>(i));
  }
}

double Hst::distance(std::size_t p, std::size_t q) const {
  std::size_t a = leaf(p);
  std::size_t b = leaf(q);
  double total = 0.0;
  // Climb the deeper side (larger index is never an ancestor of a smaller
  // one in topological order, so walking the larger index up is safe).
  while (a != b) {
    if (a > b) {
      total += nodes_[a].edge_weight;
      a = static_cast<std::size_t>(nodes_[a].parent);
    } else {
      total += nodes_[b].edge_weight;
      b = static_cast<std::size_t>(nodes_[b].parent);
    }
  }
  return total;
}

std::size_t Hst::depth() const {
  std::vector<std::size_t> depth(nodes_.size(), 0);
  std::size_t deepest = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    depth[i] = depth[static_cast<std::size_t>(nodes_[i].parent)] + 1;
    deepest = std::max(deepest, depth[i]);
  }
  return deepest;
}

Status Hst::validate() const {
  if (nodes_[0].parent != -1) {
    return Status(StatusCode::kInternal, "root must have parent -1");
  }
  std::vector<std::uint32_t> computed_size(nodes_.size(), 0);
  std::vector<std::size_t> leaves_seen(num_points(), 0);
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    const HstNode& node = nodes_[i];
    if (node.point >= 0) {
      if (static_cast<std::size_t>(node.point) >= num_points()) {
        return Status(StatusCode::kInternal, "leaf point index out of range");
      }
      if (leaf_of_point_[node.point] != i) {
        return Status(StatusCode::kInternal,
                      "leaf_of_point does not match leaf node");
      }
      ++leaves_seen[node.point];
      computed_size[i] += 1;
      if (!children_[i].empty()) {
        return Status(StatusCode::kInternal, "leaf node has children");
      }
    }
    if (node.subtree_size != computed_size[i]) {
      return Status(StatusCode::kInternal, "subtree_size inconsistent");
    }
    if (i > 0) {
      const auto parent = static_cast<std::size_t>(node.parent);
      if (nodes_[parent].level >= node.level) {
        return Status(StatusCode::kInternal,
                      "levels must strictly increase along edges");
      }
      if (!std::isfinite(node.edge_weight) || node.edge_weight < 0.0) {
        return Status(StatusCode::kInternal,
                      "edge weight must be finite and >= 0");
      }
      computed_size[parent] += computed_size[i];
    }
  }
  for (std::size_t p = 0; p < num_points(); ++p) {
    if (leaves_seen[p] != 1) {
      return Status(StatusCode::kInternal,
                    "point " + std::to_string(p) + " has " +
                        std::to_string(leaves_seen[p]) + " leaves");
    }
  }
  return Status::Ok();
}

}  // namespace mpte
