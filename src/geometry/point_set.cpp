#include "geometry/point_set.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "simd/dispatch.hpp"

namespace mpte {

PointSet::PointSet(std::size_t n, std::size_t dim)
    : n_(n), dim_(dim), data_(n * dim, 0.0) {}

PointSet::PointSet(std::size_t n, std::size_t dim, std::vector<double> data)
    : n_(n), dim_(dim), data_(std::move(data)) {
  // Divide rather than multiply: a hostile n * dim may wrap to data.size().
  const bool fits = dim_ == 0 ? data_.empty()
                              : data_.size() % dim_ == 0 &&
                                    data_.size() / dim_ == n_;
  if (!fits) {
    throw MpteError("PointSet: buffer size does not match n * dim");
  }
}

void PointSet::push_back(std::span<const double> p) {
  if (n_ == 0 && dim_ == 0) {
    dim_ = p.size();
  }
  if (p.size() != dim_) {
    throw MpteError("PointSet::push_back: dimension mismatch");
  }
  data_.insert(data_.end(), p.begin(), p.end());
  ++n_;
}

PointSet PointSet::select(std::span<const std::size_t> indices) const {
  PointSet out(indices.size(), dim_);
  for (std::size_t row = 0; row < indices.size(); ++row) {
    assert(indices[row] < n_);
    const auto src = (*this)[indices[row]];
    std::copy(src.begin(), src.end(), out[row].begin());
  }
  return out;
}

PointSet PointSet::project(std::size_t begin, std::size_t end) const {
  assert(begin <= end && end <= dim_);
  PointSet out(n_, end - begin);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* src = data_.data() + i * dim_;
    std::copy(src + begin, src + end, out[i].begin());
  }
  return out;
}

PointSet PointSet::pad_dims(std::size_t new_dim) const {
  assert(new_dim >= dim_);
  PointSet out(n_, new_dim);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto src = (*this)[i];
    std::copy(src.begin(), src.end(), out[i].begin());
  }
  return out;
}

double l2_distance_squared(std::span<const double> a,
                           std::span<const double> b) {
  assert(a.size() == b.size());
  return simd::ops().l2sq(a.data(), b.data(), a.size());
}

double l2_distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(l2_distance_squared(a, b));
}

DistanceExtremes pairwise_distance_extremes(const PointSet& points) {
  DistanceExtremes out{0.0, 0.0};
  const std::size_t n = points.size();
  if (n < 2) return out;
  // Each chunk owns a contiguous range of "first" indices i and scans the
  // full upper triangle rows it owns; min/max are exact under any merge
  // order, and merging per-chunk extremes in chunk order keeps the scan
  // deterministic at every thread count anyway. (Rows shrink with i, so
  // chunks are uneven — acceptable for the test/bench-scale inputs this
  // is documented for.)
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(par::resolve_threads(0), n - 1));
  std::vector<double> mins(chunks, std::numeric_limits<double>::infinity());
  std::vector<double> maxs(chunks, 0.0);
  par::parallel_for_chunked(
      0, n - 1, chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        const simd::Ops& ops = simd::ops();
        double lo = std::numeric_limits<double>::infinity();
        double hi = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const auto pi = points[i];
          for (std::size_t j = i + 1; j < n; ++j) {
            const auto pj = points[j];
            const double d2 = ops.l2sq(pi.data(), pj.data(), pi.size());
            lo = std::min(lo, d2);
            hi = std::max(hi, d2);
          }
        }
        mins[chunk] = lo;
        maxs[chunk] = hi;
      });
  double min_sq = std::numeric_limits<double>::infinity();
  double max_sq = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) {
    min_sq = std::min(min_sq, mins[c]);
    max_sq = std::max(max_sq, maxs[c]);
  }
  out.min = std::sqrt(min_sq);
  out.max = std::sqrt(max_sq);
  return out;
}

}  // namespace mpte
