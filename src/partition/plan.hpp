// The partition plan: what a hierarchical partitioning fixes before it
// draws a seed — the method, bucket count r, per-bucket dimension k, grid
// count U and scale ladder. plan_partition is the one place they are
// resolved; embed(), the MPC driver and mpte::dyn all call it, and
// build_hierarchy draws one hierarchy from a plan. The r rule: 1 for ball, the dimension for grid, and for
// hybrid the caller's r clamped to the dimension, or auto_num_buckets when
// the caller leaves it at 0.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/status.hpp"
#include "geometry/point_set.hpp"
#include "partition/hybrid_partition.hpp"

namespace mpte {

/// Which hierarchical partitioning builds the tree.
enum class PartitionMethod {
  /// Arora's random shifted grid [9] — the O(log^2 n) baseline.
  kGrid,
  /// Charikar et al.'s ball partitioning [27] — hybrid with r = 1.
  kBall,
  /// The paper's hybrid partitioning (Algorithm 1).
  kHybrid,
};

/// The r used by Theorem 1's parameterization: max(1, round(2·ln ln n)),
/// clamped to [1, dim].
std::uint32_t theorem1_num_buckets(std::size_t n, std::size_t dim);

/// The automatic bucket count: Theorem 1's r, raised so the per-bucket
/// dimension stays <= max_bucket_dim (see PartitionOptions).
std::uint32_t auto_num_buckets(std::size_t n, std::size_t dim,
                               std::size_t max_bucket_dim);

/// The partition settings every pipeline takes. Zeros mean "choose per
/// the paper".
struct PartitionOptions {
  /// Buckets r for the hybrid method; 0 = auto: max(Theta(log log n) as in
  /// Theorem 1, ceil(dim / max_bucket_dim)). An r above the working
  /// dimension is clamped to it (a caller cannot know the dimension after
  /// the FJLT); buckets_used reports the r used.
  std::uint32_t num_buckets = 0;
  /// Cap on the per-bucket dimension d/r when num_buckets is auto. The
  /// grid count U grows as 2^{Theta(k log k)} in the bucket dimension k
  /// (Lemma 7), so while r = Theta(log log n) suffices asymptotically,
  /// any implementable scale needs small buckets — the very trade-off
  /// hybridization exists for. 3 keeps U in the hundreds.
  std::size_t max_bucket_dim = 3;
  /// Grids per (level, bucket); 0 = auto from Lemma 7's union bound.
  std::size_t num_grids = 0;
  /// Coverage failure probability per run.
  double fail_prob = 1e-6;
  UncoveredPolicy uncovered = UncoveredPolicy::kFail;
};

/// The seed-independent description of one hierarchical partitioning.
struct PartitionPlan {
  PartitionMethod method = PartitionMethod::kHybrid;
  /// Points lie in [1, delta]^dim.
  std::uint64_t delta = 0;
  /// r (1 for ball, dim for grid) and k = ceil(dim / r).
  std::uint32_t num_buckets = 1;
  std::size_t bucket_dim = 1;
  /// Grids per (level, bucket) U; 0 for the grid method.
  std::size_t num_grids = 0;
  ScaleLadder ladder;
  UncoveredPolicy uncovered = UncoveredPolicy::kFail;

  /// The hybrid id chain under partition seed `seed`; it views
  /// ladder.scales, so it must not outlive the plan.
  HybridChain chain(std::uint64_t seed) const;
};

/// Resolves the plan for n points in [1, delta]^dim: r by the rule above,
/// k, the ladder, U (options.num_grids, or recommended_num_grids over n
/// points), then check_grid_set_size's kInvalidArgument when the grid sets
/// would not fit.
Result<PartitionPlan> plan_partition(PartitionMethod method, std::size_t n,
                                     std::size_t dim, std::uint64_t delta,
                                     const PartitionOptions& options);

/// One hierarchy under `plan` for partition seed `seed`: Arora's shifted
/// grids for the grid method, Algorithm 1's hybrid id chain otherwise.
/// Fails with kCoverageFailure under UncoveredPolicy::kFail if a point is
/// left uncovered.
Result<Hierarchy> build_hierarchy(const PointSet& points,
                                  const PartitionPlan& plan,
                                  std::uint64_t seed);

}  // namespace mpte
