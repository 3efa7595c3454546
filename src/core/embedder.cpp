#include "core/embedder.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "tree/embedding_builder.hpp"
#include "transform/fjlt.hpp"

namespace mpte {

const char* to_string(PartitionMethod method) {
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

Result<Embedding> embed(const PointSet& points, const EmbedOptions& options) {
  if (points.size() < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "embed: need at least two points");
  }

  // Stage spans under one root, named like mpc_embed's: fjlt/fjlt,
  // emb/delta, emb/quantize, emb/partition-attempt (one per attempt) and
  // emb/build-hst.
  const obs::Span pipeline_span("emb", "embed", "points", points.size());

  // (1) Dimension reduction when the ambient dimension exceeds the FJLT
  // target k — below that the transform only adds distortion.
  PointSet working = points;
  bool fjlt_applied = false;
  if (options.use_fjlt) {
    const FjltConfig config = FjltConfig::make(
        points.size(), points.dim(), options.fjlt_xi, mix64(options.seed));
    if (config.output_dim < points.dim()) {
      const obs::Span span("fjlt", "fjlt", "dim", config.output_dim);
      working = Fjlt(config).transform(points);
      fjlt_applied = true;
    }
  }

  // (2) Quantization to [1, Delta]^dim.
  const std::uint64_t delta = [&] {
    const obs::Span span("emb", "delta");
    return options.delta > 0
               ? options.delta
               : recommended_delta(working, options.quantize_eps, 1ull << 20);
  }();
  Quantized quantized = [&] {
    const obs::Span span("emb", "quantize", "delta", delta);
    return quantize_to_grid(working, delta);
  }();

  // (3) Partitioning with retries, (4) assembly.
  const std::size_t dim = quantized.points.dim();
  Status last_failure(StatusCode::kInternal, "unreached");
  for (int attempt = 0; attempt <= options.max_retries; ++attempt) {
    const std::uint64_t attempt_seed =
        hash_combine(mix64(options.seed), static_cast<std::uint64_t>(attempt));
    Result<Hierarchy> hierarchy = [&]() -> Result<Hierarchy> {
      const obs::Span span("emb", "partition-attempt", "attempt",
                           static_cast<std::uint64_t>(attempt));
      switch (options.method) {
        case PartitionMethod::kGrid:
          return build_grid_hierarchy(quantized.points, delta, attempt_seed);
        case PartitionMethod::kBall:
        case PartitionMethod::kHybrid: {
          HybridOptions hybrid;
          hybrid.num_buckets =
              options.method == PartitionMethod::kBall
                  ? 1
                  : (options.num_buckets > 0
                         ? options.num_buckets
                         : auto_num_buckets(points.size(), dim,
                                            options.max_bucket_dim));
          hybrid.delta = delta;
          hybrid.seed = attempt_seed;
          hybrid.num_grids = options.num_grids;
          hybrid.fail_prob = options.fail_prob;
          hybrid.uncovered = options.uncovered;
          return build_hybrid_hierarchy(quantized.points, hybrid);
        }
      }
      return Status(StatusCode::kInvalidArgument, "embed: unknown method");
    }();

    if (!hierarchy.ok()) {
      last_failure = hierarchy.status();
      if (last_failure.code() == StatusCode::kCoverageFailure) {
        continue;  // Monte Carlo retry with a fresh seed
      }
      return last_failure;
    }

    Hst tree = [&] {
      const obs::Span span("emb", "build-hst");
      return build_hst(*hierarchy);
    }();
    Embedding embedding{
        std::move(tree),
        std::move(quantized.points),
        quantized.scale_back,
        delta,
        hierarchy->num_buckets,
        hierarchy->num_grids,
        dim,
        fjlt_applied,
        attempt,
        /*point_ids=*/{},
    };
    return embedding;
  }
  return last_failure;
}

}  // namespace mpte
