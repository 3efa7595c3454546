#include "geometry/generators.hpp"

#include <cassert>
#include <cmath>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace mpte {

PointSet generate_uniform_cube(std::size_t n, std::size_t dim, double side,
                               std::uint64_t seed) {
  Rng rng(seed);
  PointSet points(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    auto p = points[i];
    for (std::size_t j = 0; j < dim; ++j) p[j] = rng.uniform(0.0, side);
  }
  return points;
}

PointSet generate_gaussian_clusters(std::size_t n, std::size_t dim,
                                    std::size_t clusters, double side,
                                    double stddev, std::uint64_t seed) {
  assert(clusters >= 1);
  Rng rng(seed);
  PointSet centers(clusters, dim);
  for (std::size_t c = 0; c < clusters; ++c) {
    auto p = centers[c];
    for (std::size_t j = 0; j < dim; ++j) p[j] = rng.uniform(0.0, side);
  }
  PointSet points(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto center = centers[rng.uniform_u64(clusters)];
    auto p = points[i];
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = rng.normal(center[j], stddev);
    }
  }
  return points;
}

PointSet generate_subspace(std::size_t n, std::size_t dim,
                           std::size_t intrinsic_dim, double side,
                           double noise_stddev, std::uint64_t seed) {
  assert(intrinsic_dim >= 1 && intrinsic_dim <= dim);
  Rng rng(seed);
  // Random basis: intrinsic_dim Gaussian directions, normalized. Not
  // orthogonalized — a random linear map preserves "low intrinsic
  // dimension", which is all the generator promises.
  std::vector<double> basis(intrinsic_dim * dim);
  for (std::size_t b = 0; b < intrinsic_dim; ++b) {
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      const double g = rng.normal();
      basis[b * dim + j] = g;
      norm_sq += g * g;
    }
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (std::size_t j = 0; j < dim; ++j) basis[b * dim + j] *= inv;
  }
  PointSet points(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    auto p = points[i];
    for (std::size_t b = 0; b < intrinsic_dim; ++b) {
      const double coeff = rng.uniform(0.0, side);
      for (std::size_t j = 0; j < dim; ++j) {
        p[j] += coeff * basis[b * dim + j];
      }
    }
    if (noise_stddev > 0.0) {
      for (std::size_t j = 0; j < dim; ++j) {
        p[j] += rng.normal(0.0, noise_stddev);
      }
    }
  }
  return points;
}

PointSet generate_two_blobs(std::size_t n, std::size_t dim, double separation,
                            double stddev, std::uint64_t seed) {
  assert(dim >= 1);
  Rng rng(seed);
  PointSet points(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const bool second = i >= n / 2;
    auto p = points[i];
    p[0] = rng.normal(second ? separation : 0.0, stddev);
    for (std::size_t j = 1; j < dim; ++j) p[j] = rng.normal(0.0, stddev);
  }
  return points;
}

PointSet generate_pair_at_distance(std::size_t dim, double side,
                                   double distance, std::uint64_t seed) {
  if (distance > side) {
    throw MpteError("generate_pair_at_distance: distance exceeds box side");
  }
  Rng rng(seed);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    PointSet points(2, dim);
    auto a = points[0];
    auto b = points[1];
    for (std::size_t j = 0; j < dim; ++j) a[j] = rng.uniform(0.0, side);
    // Random unit direction.
    std::vector<double> dir(dim);
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      dir[j] = rng.normal();
      norm_sq += dir[j] * dir[j];
    }
    const double inv = 1.0 / std::sqrt(norm_sq);
    bool inside = true;
    for (std::size_t j = 0; j < dim; ++j) {
      b[j] = a[j] + distance * dir[j] * inv;
      if (b[j] < 0.0 || b[j] > side) inside = false;
    }
    if (inside) return points;
  }
  throw MpteError("generate_pair_at_distance: could not place pair in box");
}

}  // namespace mpte
