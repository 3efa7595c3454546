#include "geometry/bounding_box.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace mpte {

BoundingBox::BoundingBox(std::vector<double> lo, std::vector<double> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  if (lo_.size() != hi_.size()) {
    throw MpteError("BoundingBox: lo/hi dimension mismatch");
  }
  for (std::size_t j = 0; j < lo_.size(); ++j) {
    if (lo_[j] > hi_[j]) {
      throw MpteError("BoundingBox: lo > hi in some dimension");
    }
  }
}

BoundingBox BoundingBox::of(const PointSet& points) {
  if (points.empty()) {
    throw MpteError("BoundingBox::of: empty point set");
  }
  std::vector<double> lo(points.dim()), hi(points.dim());
  const auto first = points[0];
  for (std::size_t j = 0; j < points.dim(); ++j) lo[j] = hi[j] = first[j];
  for (std::size_t i = 1; i < points.size(); ++i) {
    const auto p = points[i];
    for (std::size_t j = 0; j < points.dim(); ++j) {
      lo[j] = std::min(lo[j], p[j]);
      hi[j] = std::max(hi[j], p[j]);
    }
  }
  return BoundingBox(std::move(lo), std::move(hi));
}

double BoundingBox::width() const {
  double w = 0.0;
  for (std::size_t j = 0; j < dim(); ++j) w = std::max(w, hi_[j] - lo_[j]);
  return w;
}

}  // namespace mpte
