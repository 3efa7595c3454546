#include "geometry/quantize.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/status.hpp"
#include "geometry/closest_pair.hpp"

namespace mpte {

QuantFrame QuantFrame::of(const BoundingBox& box, std::uint64_t delta) {
  if (delta < 2) throw MpteError("QuantFrame: delta must be >= 2");
  const double width = box.width();
  return QuantFrame{box.lo(),
                    width > 0.0 ? width / static_cast<double>(delta - 1)
                                : 1.0,
                    delta};
}

void QuantFrame::snap(std::span<const double> src,
                      std::span<double> dst) const {
  for (std::size_t j = 0; j < src.size(); ++j) dst[j] = snap(src[j], j);
}

Quantized quantize_to_grid(const PointSet& points, std::uint64_t delta) {
  if (delta < 2) throw MpteError("quantize_to_grid: delta must be >= 2");
  if (points.empty()) throw MpteError("quantize_to_grid: empty point set");

  const QuantFrame frame = QuantFrame::of(BoundingBox::of(points), delta);
  Quantized out;
  out.delta = delta;
  out.scale_back = frame.cell;
  out.max_rounding_error = 0.0;
  out.points = PointSet(points.size(), points.dim());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto src = points[i];
    auto dst = out.points[i];
    frame.snap(src, dst);
    for (std::size_t j = 0; j < points.dim(); ++j) {
      const double lattice_x = frame.lo[j] + (dst[j] - 1.0) * frame.cell;
      out.max_rounding_error =
          std::max(out.max_rounding_error, std::abs(src[j] - lattice_x));
    }
  }
  return out;
}

std::uint64_t recommended_delta(const PointSet& points, double eps,
                                std::uint64_t max_delta) {
  assert(eps > 0.0);
  // Only d_min matters: a zero diameter implies a zero d_min. A d_min that
  // is not finite (coordinates that overflow or are NaN) gives no scale.
  const double d_min = closest_pair_distance(points);
  if (d_min == 0.0 || !std::isfinite(d_min)) return 2;
  const double width = BoundingBox::of(points).width();
  // Per-coordinate rounding error is cell/2 = width / (2(Delta-1)); the
  // distance between two points moves by at most sqrt(d) * cell. Require
  // sqrt(d) * cell <= eps * d_min.
  const double sqrt_d = std::sqrt(static_cast<double>(points.dim()));
  const double needed = width * sqrt_d / (eps * d_min) + 1.0;
  const double clamped =
      std::clamp(needed, 2.0, static_cast<double>(max_delta));
  return static_cast<std::uint64_t>(std::ceil(clamped));
}

}  // namespace mpte
