#include "partition/plan.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "common/math_util.hpp"
#include "partition/coverage.hpp"

namespace mpte {

std::uint32_t theorem1_num_buckets(std::size_t n, std::size_t dim) {
  const double ln_n = std::log(std::max<double>(3.0, static_cast<double>(n)));
  const double r = 2.0 * std::log(std::max(std::numbers::e_v<double>, ln_n));
  const auto rounded =
      static_cast<std::uint32_t>(std::max(1.0, std::round(r)));
  return std::min<std::uint32_t>(rounded,
                                 static_cast<std::uint32_t>(dim));
}

std::uint32_t auto_num_buckets(std::size_t n, std::size_t dim,
                               std::size_t max_bucket_dim) {
  const std::uint32_t theory = theorem1_num_buckets(n, dim);
  const auto practical = static_cast<std::uint32_t>(
      ceil_div(dim, std::max<std::size_t>(1, max_bucket_dim)));
  return std::min<std::uint32_t>(static_cast<std::uint32_t>(dim),
                                 std::max(theory, practical));
}

HybridChain PartitionPlan::chain(std::uint64_t seed) const {
  HybridChain chain;
  chain.seed = seed;
  chain.num_buckets = num_buckets;
  chain.bucket_dim = bucket_dim;
  chain.num_grids = num_grids;
  chain.scales = ladder.scales;
  chain.uncovered = uncovered;
  return chain;
}

Result<PartitionPlan> plan_partition(PartitionMethod method, std::size_t n,
                                     std::size_t dim, std::uint64_t delta,
                                     const PartitionOptions& options) {
  if (dim == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "partition plan: dimension must be >= 1");
  }
  PartitionPlan plan;
  plan.method = method;
  plan.delta = delta;
  plan.uncovered = options.uncovered;
  if (method == PartitionMethod::kGrid) {
    plan.num_buckets = static_cast<std::uint32_t>(dim);
    plan.bucket_dim = dim;
    plan.ladder = grid_scale_ladder(dim, delta);
    return plan;
  }
  plan.num_buckets =
      method == PartitionMethod::kBall
          ? 1
          : (options.num_buckets > 0
                 ? std::min<std::uint32_t>(options.num_buckets,
                                           static_cast<std::uint32_t>(dim))
                 : auto_num_buckets(n, dim, options.max_bucket_dim));
  plan.bucket_dim = ceil_div(dim, static_cast<std::size_t>(plan.num_buckets));
  plan.ladder = hybrid_scale_ladder(dim, plan.num_buckets, delta);
  plan.num_grids =
      options.num_grids > 0
          ? options.num_grids
          : recommended_num_grids(plan.bucket_dim, n, plan.num_buckets,
                                  plan.ladder.levels, options.fail_prob);
  if (const Status feasible =
          check_grid_set_size(plan.bucket_dim, plan.num_grids);
      !feasible.ok()) {
    return feasible;
  }
  return plan;
}

Result<Hierarchy> build_hierarchy(const PointSet& points,
                                  const PartitionPlan& plan,
                                  std::uint64_t seed) {
  if (plan.method == PartitionMethod::kGrid) {
    return build_grid_hierarchy(points, plan.delta, seed);
  }
  const std::size_t n = points.size();
  const std::size_t levels = plan.ladder.levels;
  Hierarchy h;
  h.num_buckets = plan.num_buckets;
  h.num_grids = plan.num_grids;
  h.scales = plan.ladder.scales;
  h.edge_weight = plan.ladder.edge_weight;
  h.explicit_grid_bytes = levels * plan.num_buckets * plan.num_grids *
                          plan.bucket_dim * sizeof(double);
  h.cluster_of_point.reserve(levels + 1);
  h.cluster_of_point.emplace_back(n, hybrid_root_id(seed));

  // Chains continue below singleton clusters; the tree builder prunes them
  // (so the MPC path, where no machine knows global cluster sizes, computes
  // the identical structure).
  const PathIdsReport report = hybrid_path_ids(
      plan.chain(seed), points.raw(), points.dim(), {}, {},
      [&](std::size_t, std::span<const std::uint64_t>,
          std::span<const std::uint64_t> child) {
        h.cluster_of_point.emplace_back(child.begin(), child.end());
      });
  if (report.uncovered > 0 && plan.uncovered == UncoveredPolicy::kFail) {
    return Status(StatusCode::kCoverageFailure,
                  "ball partitioning left point " +
                      std::to_string(report.point) + " uncovered at level " +
                      std::to_string(report.level) + " bucket " +
                      std::to_string(report.bucket) + " (U=" +
                      std::to_string(plan.num_grids) + ")");
  }
  h.uncovered_events = report.uncovered;
  return h;
}

}  // namespace mpte
