#include "partition/ball_partition.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "partition/coverage.hpp"
#include "simd/dispatch.hpp"

namespace mpte {

BallGrids::BallGrids(std::size_t dim, double radius, std::size_t num_grids,
                     std::uint64_t seed)
    : dim_(dim),
      radius_(radius),
      num_grids_(num_grids),
      seed_(seed),
      cell_(4.0 * radius),
      inv_cell_(1.0 / (4.0 * radius)),
      radius_sq_(radius * radius) {
  if (dim == 0) throw MpteError("BallGrids: dim must be >= 1");
  if (radius <= 0.0) throw MpteError("BallGrids: radius must be positive");
  if (num_grids == 0) throw MpteError("BallGrids: need at least one grid");
  if (const Status feasible = check_grid_set_size(dim, num_grids);
      !feasible.ok()) {
    throw MpteError(feasible.message());
  }
  // Materialize the num_grids × dim shift table once: assign() reads
  // shift(u, t) per point per dimension, and the two mix64 chains per
  // lookup dominated its inner loop. Each entry stays the same pure
  // function of (seed, u, t) it always was — this is a cache, and the
  // 32-byte (seed, radius, U, dim) description remains what travels
  // between machines (Lemma 8 accounting is unchanged). The layout is
  // grid-minor (entry (u, t) at t * num_grids + u) so the vectorized scan
  // streams consecutive grids' shifts for one dimension.
  shifts_by_dim_.resize(num_grids * dim);
  for (std::size_t u = 0; u < num_grids; ++u) {
    for (std::size_t t = 0; t < dim; ++t) {
      // 53 mixed bits of hash(seed, grid, t) scaled into [0, cell_width).
      const std::uint64_t h =
          hash_combine(hash_combine(mix64(seed_ ^ 0x5ba1ull), u), t);
      const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
      shifts_by_dim_[t * num_grids + u] = unit * cell_;
    }
  }
}

std::uint64_t BallGrids::ball_id(const double* p, std::size_t u) const {
  // z repeats the kernel's sub -> mul -> round-half-even chain: three
  // exactly-rounded ops with no contraction opportunity, so it is
  // bit-identical to the z the kernel derived for grid u on every backend.
  std::uint64_t id = mix64(seed_ ^ (0xba11ull + u));
  for (std::size_t t = 0; t < dim_; ++t) {
    const double s = shifts_by_dim_[t * num_grids_ + u];
    const double z = simd::round_nearest_even((p[t] - s) * inv_cell_);
    id = hash_combine(
        id, std::bit_cast<std::uint64_t>(static_cast<std::int64_t>(z)));
  }
  return id == kUncovered ? mix64(id) : id;
}

std::uint64_t BallGrids::assign_counted(std::span<const double> p,
                                        std::size_t* grids_scanned) const {
  if (p.size() != dim_) {
    throw MpteError("BallGrids::assign: dimension mismatch");
  }
  // The dispatched kernel scans grids four per vector, accumulating each
  // grid's squared distance to its nearest lattice ball center in
  // dimension order, and reports the first covering grid.
  const std::size_t u = simd::ops().ball_first_cover(
      p.data(), dim_, shifts_by_dim_.data(), num_grids_, cell_, inv_cell_,
      radius_sq_);
  if (u == num_grids_) {
    if (grids_scanned != nullptr) *grids_scanned += num_grids_;
    return kUncovered;
  }
  if (grids_scanned != nullptr) *grids_scanned += u + 1;
  return ball_id(p.data(), u);
}

void BallGrids::assign_batch(std::span<const double> coords,
                             std::size_t stride,
                             std::span<std::uint64_t> out) const {
  const std::size_t n = out.size();
  if (n == 0) return;
  if (stride < dim_ || coords.size() < dim_ ||
      (coords.size() - dim_) / stride < n - 1) {
    throw MpteError("BallGrids::assign_batch: coordinate block too small");
  }
  // Grid indexes land in a small stack block (the kernel's result is
  // 32-bit; the constructor bounds num_grids below 2^32), then each
  // covered point's id is hashed from its grid and cell.
  constexpr std::size_t kBlock = 256;
  std::uint32_t grid[kBlock];
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t m = std::min(kBlock, n - begin);
    const double* first = coords.data() + begin * stride;
    simd::ops().ball_first_cover_batch(first, stride, m, dim_,
                                       shifts_by_dim_.data(), num_grids_,
                                       cell_, inv_cell_, radius_sq_, grid);
    for (std::size_t i = 0; i < m; ++i) {
      out[begin + i] = grid[i] == num_grids_
                           ? kUncovered
                           : ball_id(first + i * stride, grid[i]);
    }
  }
}

std::uint64_t BallGrids::assign(std::span<const double> p) const {
  return assign_counted(p, nullptr);
}

BallPartitionResult ball_partition(const PointSet& points,
                                   const BallGrids& grids) {
  BallPartitionResult result;
  const std::size_t n = points.size();
  result.ball_of_point.resize(n);
  // Per-point assignments write disjoint slots; the two counters are
  // accumulated per chunk and merged in chunk order. Both are integer
  // sums, so the totals are identical at every thread count.
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(par::resolve_threads(0), n));
  std::vector<std::size_t> uncovered(chunks, 0);
  std::vector<std::size_t> scanned(chunks, 0);
  par::parallel_for_chunked(
      0, n, chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t id =
              grids.assign_counted(points[i], &scanned[chunk]);
          if (id == kUncovered) ++uncovered[chunk];
          result.ball_of_point[i] = id;
        }
      });
  for (std::size_t c = 0; c < chunks; ++c) {
    result.uncovered += uncovered[c];
    result.total_grids_scanned += scanned[c];
  }
  return result;
}

}  // namespace mpte
