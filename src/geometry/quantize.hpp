// Quantization to the integer grid [Delta]^d.
//
// Theorems 1–2 state their bounds for P ⊆ [Delta]^d with integer
// coordinates: the minimum interpoint distance is then >= 1, so the
// hierarchy bottoms out after log2(Delta) + O(1) halvings. Real-valued
// inputs are mapped onto that grid by an affine snap whose rounding error
// is bounded relative to the minimum pairwise distance.
#pragma once

#include <cstdint>

#include "geometry/point_set.hpp"

namespace mpte {

/// Result of quantizing a real point set onto the integer grid.
struct Quantized {
  /// Points with coordinates in {1, ..., delta} (stored as doubles for
  /// pipeline uniformity; values are exact integers).
  PointSet points;
  /// The grid extent Delta actually used.
  std::uint64_t delta;
  /// Multiply a tree/grid distance by this to return to input units.
  double scale_back;
  /// Largest per-coordinate rounding displacement, in input units.
  double max_rounding_error;
};

/// Affinely maps `points` into [1, delta]^d, rounding coordinates to
/// integers: x -> round((x - lo) / cell) + 1 where cell = width / (delta-1).
/// Requires delta >= 2 and at least one point.
Quantized quantize_to_grid(const PointSet& points, std::uint64_t delta);

/// Chooses Delta so that the quantization perturbs every pairwise distance
/// by at most a (1 +- eps) factor: Delta ~ width * sqrt(d) / (eps * d_min),
/// clamped to [2, max_delta]. d_min is exact: closest_pair_distance
/// (geometry/closest_pair.hpp) returns the all-pairs scan's value bit for
/// bit, and pairwise_distance_extremes stays its test oracle. Usually far
/// below O(n^2 d); the worst case (closest pair large against the spread on
/// every axis, e.g. uniform points in high dimension) is still O(n^2 d).
std::uint64_t recommended_delta(const PointSet& points, double eps,
                                std::uint64_t max_delta);

}  // namespace mpte
