// The front end every embedding pipeline shares: Algorithm 2's FJLT
// (Algorithm 3), quantization to [Delta]^d and stage 3's grid description.
// Each decision has one home — whether the FJLT runs (fjlt_if_it_pays),
// Delta (resolve_delta), each attempt's seed (attempt_seed), the lattice
// frame and snap (QuantFrame, geometry/quantize.hpp), and r, k, U and the
// ladder (plan_partition, partition/plan.hpp) — and embed(), the MPC
// driver (core/mpc_stages.hpp) and mpte::dyn call it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/status.hpp"
#include "geometry/point_set.hpp"
#include "partition/plan.hpp"
#include "transform/fjlt.hpp"

namespace mpte {

/// The settings embed(), mpc_embed() and mpte::dyn share.
struct FrontEndOptions : PartitionOptions {
  /// Grid extent Delta; 0 = recommended_delta(working points,
  /// quantize_eps, 2^20). A given Delta below 2 is kInvalidArgument.
  std::uint64_t delta = 0;
  /// Relative distance error budget for quantization when delta = 0.
  double quantize_eps = 0.05;
  /// Root seed; attempt i partitions with attempt_seed(seed, i).
  std::uint64_t seed = 1;
};

/// What embed() and mpc_embed() add: the FJLT and Monte Carlo retries.
struct PipelineOptions : FrontEndOptions {
  /// Apply the FJLT first when the input dimension exceeds the target k.
  bool use_fjlt = true;
  /// FJLT distortion parameter xi in (0, 0.5).
  double fjlt_xi = 0.25;
  /// Coverage-failure retries before giving up (Theorem 1 reports failure;
  /// retrying with a fresh seed is the standard Monte Carlo
  /// amplification). A negative count is kInvalidArgument.
  int max_retries = 3;
};

/// The FJLT for n points in R^dim when options.use_fjlt is set and the
/// target k is below dim; nullopt otherwise (it would only add
/// distortion).
std::optional<FjltConfig> fjlt_if_it_pays(std::size_t n, std::size_t dim,
                                          const PipelineOptions& options);

/// options.delta when given, else recommended_delta over the working
/// points (after any FJLT), which working() supplies only then.
/// kInvalidArgument for a given Delta below 2.
Result<std::uint64_t> resolve_delta(
    const FrontEndOptions& options,
    const std::function<const PointSet&()>& working);

/// kInvalidArgument when options.max_retries is negative.
Status check_retries(const PipelineOptions& options);

/// The partition seed of Monte Carlo attempt `attempt` (0 is the first).
std::uint64_t attempt_seed(std::uint64_t seed, int attempt);

}  // namespace mpte
