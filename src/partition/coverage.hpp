// Grid-count mathematics for ball partitioning (Lemmas 6 and 7).
//
// A single random shifted grid of radius-w balls on cells of width 4w
// covers a fixed point with probability p_k = V_k(1)/4^k in k dimensions,
// so U independent grids miss it with probability (1-p_k)^U. Lemma 7's
// U = 2^{O((d/r)log(d/r))} · log(r·logDelta/delta) is the closed form of
// choosing U so that a union bound over every (point, level, bucket) event
// stays below delta; recommended_num_grids computes that exact union-bound
// count, and lemma7_grid_bound evaluates the paper's asymptotic expression
// for comparison (bench E7).
#pragma once

#include <cstddef>

#include "common/status.hpp"

namespace mpte {

/// Largest grid count U a grid set may hold: the batched cover kernel
/// reports grid indexes in 32 bits.
inline constexpr std::size_t kMaxGridsPerSet = (std::size_t{1} << 32) - 1;

/// Largest U * k shift table (in bytes) one grid set may materialize.
inline constexpr std::size_t kMaxShiftTableBytes = std::size_t{1} << 30;

/// The one feasibility check run before any grid set is built: Ok, or
/// kInvalidArgument naming k and U when U exceeds kMaxGridsPerSet or the
/// U * k shift table exceeds kMaxShiftTableBytes. recommended_num_grids
/// saturates at 1e15 for large bucket dims; this turns that into a Status
/// instead of an allocation failure.
Status check_grid_set_size(std::size_t bucket_dim, std::size_t num_grids);

/// Exact union-bound grid count: the smallest U with
/// n_points * levels * buckets * (1 - p_k)^U <= fail_prob.
/// k is the per-bucket dimension d/r. Requires fail_prob in (0, 1).
std::size_t recommended_num_grids(std::size_t bucket_dim,
                                  std::size_t n_points, std::size_t buckets,
                                  std::size_t levels, double fail_prob);

/// The paper's Lemma 7 bound 2^{k log2 k} * ln(buckets * levels /
/// fail_prob) evaluated literally (with k = bucket_dim, the exponent's
/// implied constant set to 1). For reporting alongside the exact count.
double lemma7_grid_bound(std::size_t bucket_dim, std::size_t buckets,
                         std::size_t levels, double fail_prob);

/// Probability that U grids fail to cover at least one of n_points points
/// (per level per bucket), by the union bound: min(1, n * (1-p_k)^U).
double coverage_failure_probability(std::size_t bucket_dim,
                                    std::size_t n_points, std::size_t grids);

}  // namespace mpte
