// Achlioptas' database-friendly (sparse sign) Johnson–Lindenstrauss
// transform — the third point on the JL design spectrum the benches
// compare (dense Gaussian, sparse signs, FJLT).
//
// Entries of the k×d matrix are sqrt(3/k)·{+1 w.p. 1/6, 0 w.p. 2/3,
// -1 w.p. 1/6}: same (1±xi) guarantee as dense JL at k = Theta(xi^-2
// log n) with a third of the work and integer arithmetic — but unlike the
// FJLT its nnz is Theta(kd/3), so it does NOT give Theorem 3's total-space
// saving; it exists here to make that distinction measurable (bench E4/E5).
// Entries are counter-based functions of (seed, row, col), like the FJLT's.
#pragma once

#include <cstdint>

#include "geometry/point_set.hpp"

namespace mpte {

/// Entry (row, col) of the (unscaled) sign matrix: -1, 0, or +1 as a pure
/// function of (seed, row, col).
int sparse_jl_sign(std::uint64_t seed, std::size_t row, std::size_t col);

/// A sampled Achlioptas transform R^d -> R^k.
class SparseJl {
 public:
  SparseJl(std::size_t input_dim, std::size_t output_dim,
           std::uint64_t seed);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return output_dim_; }

  /// Number of nonzero matrix entries (~ k*d/3).
  std::size_t nonzeros() const { return cols_.size(); }

  /// Applies the map to every point.
  PointSet transform(const PointSet& points) const;

 private:
  std::size_t input_dim_;
  std::size_t output_dim_;
  std::uint64_t seed_;
  // CSR of the +-1 pattern. Values are the signs stored as doubles so the
  // dispatched gather kernel reads them without a widening pass; the
  // sqrt(3/k) scale is applied at the end of transform().
  std::vector<std::size_t> row_begin_;
  std::vector<std::uint32_t> cols_;
  std::vector<double> values_;
};

}  // namespace mpte
