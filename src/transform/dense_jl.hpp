// Dense Gaussian Johnson–Lindenstrauss transform — the classical baseline.
//
// The original JL map [46] is a dense k×d Gaussian matrix scaled by
// k^{-1/2}. It preserves pairwise distances to (1±xi) for k = Theta(xi^-2
// log n), but costs O(kd) work per point and O(nd log n) total space in
// MPC — exactly the overhead Theorem 3's FJLT removes. We keep it as the
// comparator for bench E4/E5.
#pragma once

#include <cstdint>

#include "geometry/point_set.hpp"

namespace mpte {

/// A sampled dense Gaussian JL map R^d -> R^k.
class DenseJl {
 public:
  /// Samples the k×d matrix with entries N(0, 1) scaled by k^{-1/2}.
  DenseJl(std::size_t input_dim, std::size_t output_dim, std::uint64_t seed);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return output_dim_; }

  /// Applies the map to every point.
  PointSet transform(const PointSet& points) const;

 private:
  std::size_t input_dim_;
  std::size_t output_dim_;
  std::vector<double> matrix_;  // row-major k×d, pre-scaled
};

}  // namespace mpte
