#include "transform/sparse_jl.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "simd/dispatch.hpp"

namespace mpte {

int sparse_jl_sign(std::uint64_t seed, std::size_t row, std::size_t col) {
  const std::uint64_t h =
      hash_combine(hash_combine(mix64(seed ^ 0xac1170ull), row), col);
  // Six equal slices of the hash range: one gives +1, one gives -1.
  const std::uint64_t slice = h % 6;
  if (slice == 0) return 1;
  if (slice == 1) return -1;
  return 0;
}

SparseJl::SparseJl(std::size_t input_dim, std::size_t output_dim,
                   std::uint64_t seed)
    : input_dim_(input_dim), output_dim_(output_dim), seed_(seed) {
  if (input_dim == 0 || output_dim == 0) {
    throw MpteError("SparseJl: dimensions must be positive");
  }
  row_begin_.reserve(output_dim + 1);
  row_begin_.push_back(0);
  for (std::size_t row = 0; row < output_dim; ++row) {
    for (std::size_t col = 0; col < input_dim; ++col) {
      const int sign = sparse_jl_sign(seed, row, col);
      if (sign != 0) {
        cols_.push_back(static_cast<std::uint32_t>(col));
        values_.push_back(static_cast<double>(sign));
      }
    }
    row_begin_.push_back(cols_.size());
  }
}

PointSet SparseJl::transform(const PointSet& points) const {
  PointSet out(points.size(), output_dim_);
  const double scale =
      std::sqrt(3.0 / static_cast<double>(output_dim_));
  // Shared read-only CSR matrix, disjoint output rows: parallel over
  // points, identical results at any thread count. Rows are gathered and
  // scaled straight into the destination — no per-point allocation.
  par::parallel_for(
      0, points.size(), [&](std::size_t begin, std::size_t end) {
        const simd::Ops& ops = simd::ops();
        for (std::size_t i = begin; i < end; ++i) {
          const auto src = points[i];
          auto dst = out[i];
          for (std::size_t row = 0; row < output_dim_; ++row) {
            const std::size_t rb = row_begin_[row];
            const double sum =
                ops.csr_row_dot(values_.data() + rb, cols_.data() + rb,
                                row_begin_[row + 1] - rb, src.data());
            dst[row] = sum * scale;
          }
        }
      });
  return out;
}

}  // namespace mpte
