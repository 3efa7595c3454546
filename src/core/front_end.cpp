#include "core/front_end.hpp"

#include "common/rng.hpp"
#include "geometry/quantize.hpp"

namespace mpte {

std::optional<FjltConfig> fjlt_if_it_pays(std::size_t n, std::size_t dim,
                                          const PipelineOptions& options) {
  if (!options.use_fjlt) return std::nullopt;
  const FjltConfig config =
      FjltConfig::make(n, dim, options.fjlt_xi, mix64(options.seed));
  if (config.output_dim >= dim) return std::nullopt;
  return config;
}

Result<std::uint64_t> resolve_delta(
    const FrontEndOptions& options,
    const std::function<const PointSet&()>& working) {
  if (options.delta == 1) {
    return Status(StatusCode::kInvalidArgument, "delta must be >= 2");
  }
  // Delta is the paper's input promise; derive it when the caller gives
  // none. recommended_delta never returns less than 2.
  return options.delta > 0
             ? options.delta
             : recommended_delta(working(), options.quantize_eps, 1ull << 20);
}

Status check_retries(const PipelineOptions& options) {
  if (options.max_retries < 0) {
    return Status(StatusCode::kInvalidArgument,
                  "max_retries must be >= 0");
  }
  return Status::Ok();
}

std::uint64_t attempt_seed(std::uint64_t seed, int attempt) {
  return hash_combine(mix64(seed), static_cast<std::uint64_t>(attempt));
}

}  // namespace mpte
