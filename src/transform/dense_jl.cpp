#include "transform/dense_jl.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "simd/dispatch.hpp"

namespace mpte {

DenseJl::DenseJl(std::size_t input_dim, std::size_t output_dim,
                 std::uint64_t seed)
    : input_dim_(input_dim),
      output_dim_(output_dim),
      matrix_(input_dim * output_dim) {
  if (input_dim == 0 || output_dim == 0) {
    throw MpteError("DenseJl: dimensions must be positive");
  }
  Rng rng(seed);
  const double scale = 1.0 / std::sqrt(static_cast<double>(output_dim));
  for (double& entry : matrix_) entry = rng.normal() * scale;
}

PointSet DenseJl::transform(const PointSet& points) const {
  PointSet out(points.size(), output_dim_);
  // Each point's projection reads the shared matrix and writes its own
  // output row — embarrassingly parallel over points. The gemv kernel
  // writes straight into the destination row, so the batch path does no
  // per-point allocation.
  par::parallel_for(
      0, points.size(), [&](std::size_t begin, std::size_t end) {
        const simd::Ops& ops = simd::ops();
        for (std::size_t i = begin; i < end; ++i) {
          ops.gemv(matrix_.data(), output_dim_, input_dim_, points[i].data(),
                   out[i].data());
        }
      });
  return out;
}

}  // namespace mpte
