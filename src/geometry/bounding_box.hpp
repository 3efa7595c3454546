// Axis-aligned bounding boxes.
//
// The hierarchical partitioners start from a bounding box B over the data
// (Section 1.2): its width fixes the top-level scale w_0 and anchors the
// random grid shifts.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/point_set.hpp"

namespace mpte {

/// Axis-aligned box given by per-dimension [lo, hi] intervals.
class BoundingBox {
 public:
  BoundingBox() = default;
  BoundingBox(std::vector<double> lo, std::vector<double> hi);

  /// Tight bounding box of a nonempty point set.
  static BoundingBox of(const PointSet& points);

  std::size_t dim() const { return lo_.size(); }
  const std::vector<double>& lo() const { return lo_; }
  const std::vector<double>& hi() const { return hi_; }

  /// Largest side length over all dimensions (the "width" of B).
  double width() const;

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

}  // namespace mpte
