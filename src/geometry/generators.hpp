// Synthetic workload generators.
//
// The paper is worst-case theory with no datasets, so the benches exercise
// its claims on synthetic inputs spanning the regimes the analysis
// distinguishes: high ambient dimension (FJLT territory), bounded aspect
// ratio Delta (the logDelta factor in Theorem 2), clustered vs spread mass
// (partition-diameter vs separation-probability trade-off), and points with
// genuinely low intrinsic dimension embedded in R^d (where dimension
// reduction is near-lossless).
#pragma once

#include <cstddef>
#include <cstdint>

#include "geometry/point_set.hpp"

namespace mpte {

/// n points uniform in the cube [0, side]^d.
PointSet generate_uniform_cube(std::size_t n, std::size_t dim, double side,
                               std::uint64_t seed);

/// Mixture of `clusters` spherical Gaussians with the given stddev; centers
/// are uniform in [0, side]^d. Stresses the hierarchy: tight clusters
/// separate only deep in the tree.
PointSet generate_gaussian_clusters(std::size_t n, std::size_t dim,
                                    std::size_t clusters, double side,
                                    double stddev, std::uint64_t seed);

/// Points on a random `intrinsic_dim`-dimensional linear subspace of R^d
/// (uniform coefficients in [0, side]), plus optional Gaussian noise of the
/// given stddev in the ambient space.
PointSet generate_subspace(std::size_t n, std::size_t dim,
                           std::size_t intrinsic_dim, double side,
                           double noise_stddev, std::uint64_t seed);

/// Two tight Gaussian blobs separated by `separation` along the first axis;
/// n/2 points each. The canonical densest-ball / EMD stress input.
PointSet generate_two_blobs(std::size_t n, std::size_t dim, double separation,
                            double stddev, std::uint64_t seed);

/// A random pair of points in [0, side]^d at Euclidean distance exactly
/// `distance` (a uniformly random direction from a uniform base point; the
/// base is re-drawn until the partner stays in the box).
PointSet generate_pair_at_distance(std::size_t dim, double side,
                                   double distance, std::uint64_t seed);

}  // namespace mpte
