#include "core/embedder.hpp"

#include <optional>

#include "obs/trace.hpp"
#include "tree/embedding_builder.hpp"
#include "transform/fjlt.hpp"

namespace mpte {

Result<Embedding> embed(const PointSet& points, const EmbedOptions& options) {
  if (points.size() < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "embed: need at least two points");
  }
  if (const Status retries = check_retries(options); !retries.ok()) {
    return retries;
  }

  // Stage spans under one root, named like mpc_embed's: fjlt/fjlt,
  // emb/delta, emb/quantize, emb/partition-attempt (one per attempt) and
  // emb/assemble.
  const obs::Span pipeline_span("emb", "embed", "points", points.size());

  // (1) Dimension reduction when it pays.
  const std::optional<FjltConfig> fjlt =
      fjlt_if_it_pays(points.size(), points.dim(), options);
  PointSet reduced;
  if (fjlt) {
    const obs::Span span("fjlt", "fjlt", "dim", fjlt->output_dim);
    reduced = Fjlt(*fjlt).transform(points);
  }
  const PointSet& working = fjlt ? reduced : points;

  // (2) Quantization to [1, Delta]^dim.
  const Result<std::uint64_t> delta = [&] {
    const obs::Span span("emb", "delta");
    return resolve_delta(options,
                         [&]() -> const PointSet& { return working; });
  }();
  if (!delta.ok()) return delta.status();
  Quantized quantized = [&] {
    const obs::Span span("emb", "quantize", "delta", *delta);
    return quantize_to_grid(working, *delta);
  }();

  // (3) Partitioning with retries, (4) assembly.
  const std::size_t dim = quantized.points.dim();
  const Result<PartitionPlan> plan =
      plan_partition(options.method, points.size(), dim, *delta, options);
  if (!plan.ok()) return plan.status();
  for (int attempt = 0;; ++attempt) {
    Result<Hierarchy> hierarchy = [&] {
      const obs::Span span("emb", "partition-attempt", "attempt",
                           static_cast<std::uint64_t>(attempt));
      return build_hierarchy(quantized.points, *plan,
                             attempt_seed(options.seed, attempt));
    }();
    if (!hierarchy.ok()) {
      // A coverage failure is retried with a fresh seed (Monte Carlo).
      if (hierarchy.status().code() == StatusCode::kCoverageFailure &&
          attempt < options.max_retries) {
        continue;
      }
      return hierarchy.status();
    }

    Hst tree = [&] {
      const obs::Span span("emb", "assemble");
      return build_hst(*hierarchy);
    }();
    Embedding embedding{
        std::move(tree),
        std::move(quantized.points),
        quantized.scale_back,
        *delta,
        hierarchy->num_buckets,
        hierarchy->num_grids,
        dim,
        fjlt.has_value(),
        attempt,
        /*point_ids=*/{},
    };
    return embedding;
  }
}

}  // namespace mpte
