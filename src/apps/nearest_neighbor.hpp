// Approximate nearest neighbors through the tree embedding.
//
// The HST's hierarchy is a similarity index: points that stay together
// deep in the tree are close (diameter bound, Lemma 1), and a point's
// nearest neighbor is, in expectation, among the first points it shares a
// cluster with when walking up from its leaf. The query routine walks up
// until it has gathered `budget` candidates and returns the Euclidean-best
// among them — O(budget) distance evaluations instead of O(n), with
// quality governed by the embedding distortion. (This is the tree-metric
// analogue of the classic LSH-forest / quadtree ANN recipe; Andoni [4],
// whose grid covering Lemma 6 underlies the partitioner, develops the
// theory.)
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/point_set.hpp"
#include "tree/hst.hpp"

namespace mpte {

/// One query answer.
struct NeighborResult {
  /// Index of the reported neighbor (never equals the query).
  std::size_t neighbor = 0;
  /// Euclidean distance to it.
  double distance = 0.0;
  /// Candidates actually examined.
  std::size_t candidates = 0;
};

/// Approximate nearest neighbor of point `query` (an index into the
/// embedded set): walk up from its leaf, collect subtree members until at
/// least `budget` candidates, return the closest. Requires >= 2 points.
NeighborResult tree_nearest_neighbor(const Hst& tree, const PointSet& points,
                                     std::size_t query, std::size_t budget);

/// Exact nearest neighbor by linear scan (the baseline), O(n d) per query.
NeighborResult exact_nearest_neighbor(const PointSet& points,
                                      std::size_t query);

}  // namespace mpte
