// Public API: the MPC tree-embedding pipeline (Algorithm 2 / Theorem 1).
//
// Stages, each a constant number of rounds on the simulated cluster:
//
//   (1) MPC FJLT (Theorem 3) when the ambient dimension exceeds the target
//       k = Theta(log n) — see transform/mpc_fjlt.hpp. Its output stays on
//       the machines, in the layout the next stage reads.
//   (2) Distributed quantization to [1, Delta]^dim: local per-dimension
//       extremes, converge-cast to rank 0, broadcast of the QuantFrame,
//       local snap. (The QuantFrame of geometry/quantize.hpp, so the
//       sequential and MPC pipelines see the same integer points.)
//   (3) Rank 0 "builds the grids and sends them to all machines": the grid
//       set is its (seed, scale ladder, U) description — the counter-based
//       form of the object Lemma 8 sizes — broadcast via the fan-out tree.
//   (4) Every machine computes, locally, the root-to-leaf path of each of
//       its points (per level, per bucket ball assignment, hash-chained
//       cluster ids — the same chain the sequential Algorithm 1 computes),
//       plus a failure flag if any point is uncovered. A converge-cast
//       aggregates failure; on failure the stage retries with a fresh seed
//       (Theorem 1 "reports failure").
//   (5) The tree is the union of the paths: one shuffle deduplicates the
//       (child, parent) edge records; the host assembles the HST with the
//       same pruning pass as the sequential builder, so for equal seeds
//       the two pipelines return trees with identical metrics.
//
// Stages (1)–(4) are the shared driver detail::run_mpc_pipeline
// (core/mpc_stages.hpp), which the Corollary 1 applications run too.
#pragma once

#include "core/embedder.hpp"
#include "core/front_end.hpp"
#include "geometry/point_set.hpp"
#include "mpc/cluster.hpp"

namespace mpte {

/// Options for mpc_embed() and the Corollary 1 applications (fields on
/// core/front_end.hpp's bases). delta = 0 derives Delta host-side: the
/// aspect-ratio promise is an *input* precondition in the paper, so
/// computing it is not part of the round count.
struct MpcEmbedOptions : PipelineOptions {
  /// Fan-out of broadcast trees (M^eps in the fully scalable regime).
  std::size_t broadcast_fanout = 4;
};

/// A finished MPC embedding — the embedded_points are gathered for
/// inspection — plus its cost accounting.
struct MpcEmbedding : Embedding {
  /// Rounds consumed by this call (delta of cluster.stats()).
  std::size_t rounds_used = 0;
};

/// Runs the full MPC pipeline on `cluster`. Input scatter and output
/// gather are host-side (the model's input/output are distributed); all
/// real work happens in audited rounds, accounted in cluster.stats().
Result<MpcEmbedding> mpc_embed(mpc::Cluster& cluster, const PointSet& points,
                               const MpcEmbedOptions& options);

}  // namespace mpte
