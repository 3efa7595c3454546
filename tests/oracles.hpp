// Reference implementations the tests compare the library against, and
// the lattice input several tests draw. No binary calls any of them, so
// they live beside the tests instead of in the library: each is the
// plainest correct form of what a library routine computes faster or on
// distributed state.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "apps/densest_ball.hpp"
#include "common/math_util.hpp"
#include "common/status.hpp"
#include "geometry/point_set.hpp"
#include "partition/hybrid_partition.hpp"
#include "tree/hst.hpp"

namespace mpte {

/// Points on the integer lattice {0, step, 2*step, ...}^d restricted to the
/// first n lattice points in row-major order — an adversarial regular input
/// where grid partitioning's axis alignment matters.
inline PointSet generate_lattice(std::size_t n, std::size_t dim,
                                 double step) {
  // Walk the lattice in row-major order: the k-th point has coordinates
  // given by the base-s digits of k where s = ceil(n^{1/dim}).
  const auto span = static_cast<std::size_t>(std::ceil(
      std::pow(static_cast<double>(n), 1.0 / static_cast<double>(dim))));
  const std::size_t base = std::max<std::size_t>(span, 2);
  PointSet points(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t k = i;
    auto p = points[i];
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = static_cast<double>(k % base) * step;
      k /= base;
    }
  }
  return points;
}

/// Entry of the orthonormal Walsh–Hadamard matrix, H[i][j] =
/// d^{-1/2}(-1)^{popcount(i & j)} for 0-based i, j: the dense definition
/// the fast transform is checked against.
inline double hadamard_entry(std::size_t dim, std::size_t i, std::size_t j) {
  if (!is_power_of_two(dim)) {
    throw MpteError("hadamard_entry: dim must be a power of two");
  }
  const int parity = std::popcount(i & j) & 1;
  const double sign = parity ? -1.0 : 1.0;
  return sign / std::sqrt(static_cast<double>(dim));
}

/// Deepest common ancestor of two points' leaves, by walking parent links:
/// the O(depth) oracle for LcaIndex::lca.
inline std::size_t walk_lca(const Hst& tree, std::size_t p, std::size_t q) {
  std::size_t a = tree.leaf(p);
  std::size_t b = tree.leaf(q);
  // A larger index is never an ancestor of a smaller one (topological
  // order), so walking the larger index up is safe.
  while (a != b) {
    if (a > b) {
      a = static_cast<std::size_t>(tree.node(a).parent);
    } else {
      b = static_cast<std::size_t>(tree.node(b).parent);
    }
  }
  return a;
}

/// Sum of edge weights from node i up to (excluding) the root: the
/// O(depth) oracle for LcaIndex::weight_depth.
inline double walk_depth_weight(const Hst& tree, std::size_t i) {
  double total = 0.0;
  while (tree.node(i).parent >= 0) {
    total += tree.node(i).edge_weight;
    i = static_cast<std::size_t>(tree.node(i).parent);
  }
  return total;
}

/// Tree EMD evaluated directly on an (unpruned) Hierarchy: the sum over
/// levels and clusters of edge_weight[level] * |imbalance|. This is the
/// quantity the distributed mpc_tree_emd computes; it differs from
/// tree_emd on the pruned HST only by the chain edges below singletons.
inline double hierarchy_emd(const Hierarchy& hierarchy,
                            const std::vector<int>& side) {
  if (side.size() != hierarchy.num_points()) {
    throw MpteError("hierarchy_emd: side vector size mismatch");
  }
  double total = 0.0;
  for (std::size_t level = 1; level < hierarchy.levels(); ++level) {
    std::unordered_map<std::uint64_t, std::int64_t> imbalance;
    for (std::size_t i = 0; i < side.size(); ++i) {
      imbalance[hierarchy.cluster_of_point[level][i]] += side[i];
    }
    std::int64_t root_check = 0;
    for (const auto& [id, im] : imbalance) {
      total += hierarchy.edge_weight[level] *
               static_cast<double>(std::llabs(im));
      root_check += im;
    }
    if (root_check != 0) {
      throw MpteError("hierarchy_emd: sides do not balance (sum != 0)");
    }
  }
  return total;
}

/// Densest ball evaluated directly on an (unpruned) Hierarchy via the
/// level-wise Lemma 1 diameter bound 2*sqrt(r)*w_level: the largest
/// cluster at any level whose bound is <= max_diameter (falling back to a
/// singleton if none qualifies). This is the quantity the distributed
/// mpc_densest_ball computes. `center` is unused (no single tree node
/// exists here).
inline DensestBallResult hierarchy_densest_ball(const Hierarchy& hierarchy,
                                                double max_diameter) {
  if (max_diameter < 0.0) {
    throw MpteError("hierarchy_densest_ball: negative diameter");
  }
  const double sqrt_r =
      std::sqrt(static_cast<double>(hierarchy.num_buckets));
  DensestBallResult best;
  best.count = 1;  // a singleton always qualifies (diameter 0)
  best.diameter = 0.0;
  for (std::size_t level = 0; level < hierarchy.levels(); ++level) {
    const double bound = 2.0 * sqrt_r * hierarchy.scales[level];
    if (bound > max_diameter) continue;
    std::unordered_map<std::uint64_t, std::size_t> sizes;
    for (const std::uint64_t id : hierarchy.cluster_of_point[level]) {
      ++sizes[id];
    }
    for (const auto& [id, count] : sizes) {
      if (count > best.count) {
        best.count = count;
        best.diameter = bound;
      }
    }
  }
  return best;
}

}  // namespace mpte
