#include "partition/grid_partition.hpp"

#include <bit>
#include <cmath>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "simd/dispatch.hpp"

namespace mpte {

ShiftedGrid::ShiftedGrid(std::size_t dim, double cell_width,
                         std::uint64_t seed)
    : dim_(dim),
      cell_width_(cell_width),
      inv_cell_(1.0 / cell_width),
      seed_(seed) {
  if (dim == 0) throw MpteError("ShiftedGrid: dim must be >= 1");
  if (cell_width <= 0.0) {
    throw MpteError("ShiftedGrid: cell width must be positive");
  }
  // Materialize the shift vector once (same pure function of (seed, t) as
  // before; the hash chains dominated cell_id's inner loop).
  shifts_.resize(dim);
  for (std::size_t t = 0; t < dim; ++t) {
    const std::uint64_t h = hash_combine(mix64(seed_ ^ 0x961dull), t);
    shifts_[t] = static_cast<double>(h >> 11) * 0x1.0p-53 * cell_width_;
  }
}

std::uint64_t ShiftedGrid::cell_id(std::span<const double> p) const {
  if (p.size() != dim_) {
    throw MpteError("ShiftedGrid::cell_id: dimension mismatch");
  }
  // Vectorized lattice coordinates into a per-thread row, then the
  // sequential hash chain over them.
  thread_local std::vector<double> z;
  z.resize(dim_);
  simd::ops().lattice_floor(p.data(), shifts_.data(), dim_, inv_cell_,
                            z.data());
  std::uint64_t id = mix64(seed_ ^ 0xce11ull);
  for (std::size_t t = 0; t < dim_; ++t) {
    id = hash_combine(
        id, std::bit_cast<std::uint64_t>(static_cast<std::int64_t>(z[t])));
  }
  return id;
}

std::vector<std::uint64_t> grid_partition(const PointSet& points,
                                          const ShiftedGrid& grid) {
  std::vector<std::uint64_t> cells(points.size());
  // Pure per-point hashing into disjoint slots — parallel over points.
  par::parallel_for(0, points.size(),
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        cells[i] = grid.cell_id(points[i]);
                      }
                    });
  return cells;
}

}  // namespace mpte
