// Quantization to the integer grid [Delta]^d.
//
// Theorems 1–2 state their bounds for P ⊆ [Delta]^d with integer
// coordinates: the minimum interpoint distance is then >= 1, so the
// hierarchy bottoms out after log2(Delta) + O(1) halvings. Real-valued
// inputs are mapped onto that grid by an affine snap whose rounding error
// is bounded relative to the minimum pairwise distance. QuantFrame is the
// one copy of that snap: quantize_to_grid, the MPC quantize steps and
// mpte::dyn's pinned frame all build and apply it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/bounding_box.hpp"
#include "geometry/point_set.hpp"

namespace mpte {

/// The lattice frame of a box: x on axis j snaps to
/// round((x - lo[j]) / cell), clamped to [0, delta - 1], plus 1.
struct QuantFrame {
  std::vector<double> lo;
  /// Box width / (delta - 1), or 1 for a zero-width box; multiply a
  /// lattice distance by it to return to input units.
  double cell = 1.0;
  std::uint64_t delta = 0;

  /// The frame of `box`; requires delta >= 2.
  static QuantFrame of(const BoundingBox& box, std::uint64_t delta);

  double snap(double x, std::size_t j) const {
    return std::clamp(std::round((x - lo[j]) / cell), 0.0,
                      static_cast<double>(delta - 1)) +
           1.0;
  }
  void snap(std::span<const double> src, std::span<double> dst) const;
};

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

/// Snaps `points` onto their own QuantFrame. Requires delta >= 2 and at
/// least one point.
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
