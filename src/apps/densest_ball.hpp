// Densest ball: exact baseline and the tree-embedding bicriteria
// approximation (Corollary 1.1).
//
// Given a target diameter D, the densest ball problem asks for the ball of
// diameter D containing the most points. An (alpha, beta)-approximation
// finds a ball with at least alpha times the optimal count whose diameter
// may stretch to beta*D. On a tree embedding, every cluster at the level
// whose diameter bound is ~D is a candidate ball: the densest such cluster
// contains (in expectation over trees) nearly the optimal count, with the
// diameter blow-up absorbing the distortion. The baseline searches balls
// centered at input points.
#pragma once

#include <cstddef>

#include "geometry/point_set.hpp"
#include "tree/hst.hpp"

namespace mpte {

/// A candidate ball: a center point index (or a tree node), the number of
/// points it holds, and its realized diameter bound.
struct DensestBallResult {
  /// Point count inside.
  std::size_t count = 0;
  /// For the exact baseline: the center point index. For the tree version:
  /// the HST node index of the chosen cluster.
  std::size_t center = 0;
  /// Diameter within which the counted points provably lie.
  double diameter = 0.0;
};

/// Exact (point-centered) baseline: the densest ball of *radius* D/2
/// centered at an input point — the standard polynomial relaxation, which
/// is itself within factor 1 of the optimum count at diameter 2D... more
/// precisely: any diameter-D ball lies inside the radius-D ball centered
/// at one of its member points, so max over point-centered radius-D balls
/// upper-bounds the optimum; with radius D/2 it lower-bounds it. Both
/// flavors are exposed via `radius`.
DensestBallResult densest_ball_exact(const PointSet& points, double radius);

/// Tree route: the largest cluster among HST nodes whose subtree diameter
/// bound (twice the weight from the node down to its deepest leaf) is at
/// most `max_diameter`. Returns count and that bound.
DensestBallResult densest_ball_tree(const Hst& tree, double max_diameter);

}  // namespace mpte
