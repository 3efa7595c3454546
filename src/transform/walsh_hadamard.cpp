#include "transform/walsh_hadamard.hpp"

#include <cmath>

#include "common/math_util.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "simd/dispatch.hpp"

namespace mpte {

void fwht(std::span<double> data) {
  const std::size_t n = data.size();
  if (!is_power_of_two(n)) {
    throw MpteError("fwht: length must be a power of two");
  }
  // Butterflies are elementwise adds/subs, so the dispatched vector
  // backends are bit-identical to the scalar loop by construction.
  simd::ops().fwht_row(data.data(), n);
}

void fwht_normalized(std::span<double> data) {
  fwht(data);
  const double scale = 1.0 / std::sqrt(static_cast<double>(data.size()));
  simd::ops().scale(data.data(), data.size(), scale);
}

PointSet fwht_points(const PointSet& points) {
  PointSet out = points;
  // Rows are independent transforms over disjoint storage: parallelize
  // over points (validate the dimension once, not per thread).
  if (!out.empty() && !is_power_of_two(out.dim())) {
    throw MpteError("fwht: length must be a power of two");
  }
  par::parallel_for(0, out.size(), [&out](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fwht_normalized(out[i]);
  });
  return out;
}

}  // namespace mpte
