// Public API: sequential tree embedding pipelines.
//
// embed() runs the paper's full sequential pipeline on arbitrary real
// points in R^d:
//
//   (1) dimension reduction with the FJLT when it pays (Theorem 3),
//   (2) quantization to the integer grid [Delta]^d (the Theorem 1/2 input
//       model; Delta is chosen so rounding perturbs distances negligibly),
//   (3) hierarchical partitioning — grid (Arora baseline), ball (r = 1) or
//       hybrid (Algorithm 1) — with coverage-failure retries,
//   (4) HST assembly.
//
// Stages (1)–(3) are the shared front end of core/front_end.hpp; the MPC
// pipeline and mpte::dyn make the same decisions through the same calls.
//
// The returned Embedding owns the tree and enough bookkeeping to convert
// tree distances back to input units.
#pragma once

#include <cstdint>
#include <vector>

#include "core/front_end.hpp"
#include "geometry/point_set.hpp"
#include "geometry/quantize.hpp"
#include "partition/plan.hpp"
#include "tree/hst.hpp"

namespace mpte {

/// Options for embed(); the shared fields are documented on its bases
/// (core/front_end.hpp).
struct EmbedOptions : PipelineOptions {
  PartitionMethod method = PartitionMethod::kHybrid;
};

/// A finished embedding.
struct Embedding {
  Hst tree;
  /// The points the tree was built on: quantized (and possibly
  /// dimension-reduced) coordinates in [1, delta]^dim.
  PointSet embedded_points;
  /// Multiply a tree distance (or an embedded-space distance) by this to
  /// express it in input units.
  double scale_to_input = 1.0;
  /// Parameters actually used.
  std::uint64_t delta_used = 0;
  std::uint32_t buckets_used = 0;
  std::size_t grids_used = 0;
  std::size_t dim_used = 0;
  bool fjlt_applied = false;
  int retries_used = 0;
  /// Stable external id of each embedded point (dense index -> id). Empty
  /// means the identity mapping 0..n-1 (every static build). mpte::dyn
  /// fills it so erase(id) survives a save/load round trip; embedding_io
  /// persists it in envelope version 2.
  std::vector<std::uint64_t> point_ids;

  /// Tree distance between input points p and q, in input units.
  double distance(std::size_t p, std::size_t q) const {
    return tree.distance(p, q) * scale_to_input;
  }
};

/// Embeds `points` into a weighted tree. Needs at least 2 points. Fails
/// with kCoverageFailure only if all retries fail (probability
/// <= fail_prob^(max_retries+1) under UncoveredPolicy::kFail), and with
/// kInvalidArgument for a given delta below 2 or a negative max_retries.
Result<Embedding> embed(const PointSet& points, const EmbedOptions& options);

}  // namespace mpte
