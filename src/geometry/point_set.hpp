// Dense point sets in R^d.
//
// A PointSet stores n points of dimension d contiguously (row-major), the
// layout every stage of the pipeline consumes: the FJLT multiplies columns
// of the d×n data matrix (= rows here), the partitioners slice coordinate
// buckets out of rows, and the MPC driver serializes row ranges to machines.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mpte {

/// n points in R^d stored row-major in one contiguous buffer.
class PointSet {
 public:
  PointSet() = default;

  /// Creates n zero points of dimension d.
  PointSet(std::size_t n, std::size_t dim);

  /// Adopts an existing row-major buffer; data.size() must equal n * dim.
  PointSet(std::size_t n, std::size_t dim, std::vector<double> data);

  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }
  bool empty() const { return n_ == 0; }

  /// Row view of point i.
  std::span<const double> operator[](std::size_t i) const {
    return {data_.data() + i * dim_, dim_};
  }
  std::span<double> operator[](std::size_t i) {
    return {data_.data() + i * dim_, dim_};
  }

  double coord(std::size_t i, std::size_t j) const {
    return data_[i * dim_ + j];
  }
  double& coord(std::size_t i, std::size_t j) { return data_[i * dim_ + j]; }

  const std::vector<double>& raw() const { return data_; }
  std::vector<double>& raw() { return data_; }

  /// Appends one point; p.size() must equal dim() (or sets dim if empty).
  void push_back(std::span<const double> p);

  /// Returns the subset of rows given by `indices` (in that order).
  PointSet select(std::span<const std::size_t> indices) const;

  /// Projects every point onto the coordinate range [begin, end), the
  /// "bucket" operation of hybrid partitioning (Definition 3).
  PointSet project(std::size_t begin, std::size_t end) const;

  /// Returns a copy padded with zero coordinates up to new_dim >= dim().
  /// Used to make d divisible by r (footnote 3) and to pad to a power of
  /// two for the Walsh–Hadamard transform.
  PointSet pad_dims(std::size_t new_dim) const;

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> data_;
};

/// Euclidean distance between two equal-length coordinate spans.
double l2_distance(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance.
double l2_distance_squared(std::span<const double> a,
                           std::span<const double> b);

/// Minimum and maximum over all pairwise distances by the exact O(n^2 d)
/// scan (intended for test/bench-scale inputs). Returns {0, 0} if fewer
/// than two points. The minimum alone is closest_pair_distance
/// (geometry/closest_pair.hpp), which this scan is the test oracle for.
struct DistanceExtremes {
  double min;
  double max;
};
DistanceExtremes pairwise_distance_extremes(const PointSet& points);

}  // namespace mpte
