// The one route by which tests draw a hierarchical partitioning: the
// route embed(), the MPC driver and mpte::dyn take — plan_partition
// resolves r, k, U and the ladder, then build_hierarchy draws the
// hierarchy under a partition seed.
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "geometry/point_set.hpp"
#include "partition/plan.hpp"

namespace mpte {

/// The method's name in test names and failure messages.
inline const char* method_name(PartitionMethod method) {
  switch (method) {
    case PartitionMethod::kGrid:
      return "grid";
    case PartitionMethod::kBall:
      return "ball";
    case PartitionMethod::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

/// Plans `method` over `points` in [1, delta]^dim with `options` (the
/// default leaves r automatic) and draws one hierarchy under `seed`. A
/// plan or build failure comes back as the Status.
inline Result<Hierarchy> plan_and_build(const PointSet& points,
                                        PartitionMethod method,
                                        std::uint64_t delta,
                                        std::uint64_t seed,
                                        const PartitionOptions& options = {}) {
  auto plan = plan_partition(method, points.size(), points.dim(), delta,
                             options);
  if (!plan.ok()) return plan.status();
  return build_hierarchy(points, *plan, seed);
}

}  // namespace mpte
