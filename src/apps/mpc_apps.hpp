// Fully distributed Corollary 1 applications.
//
// Corollary 1 is an *MPC* statement: O(1)-round algorithms for densest
// ball, minimum spanning tree, and Earth-Mover distance. These entry
// points run the shared pipeline stages (optional MPC FJLT, distributed
// quantization, grid broadcast, local path computation — core/mpc_stages)
// and then consume the distributed (level, cluster)-keyed path records
// with one or two shuffles each, never assembling the tree on one machine:
//
//   * EMD      — reduce per-cluster side imbalance, locally weight by the
//                level's edge weight, converge-cast the sum.
//   * densest  — reduce per-cluster counts, keep the best cluster whose
//     ball       Lemma 1 diameter bound fits, converge-cast the max.
//   * MST      — elect a representative (min point index) per cluster,
//                join child and parent representatives by one routed
//                round, emit connecting edges; host reads out the edge
//                list (the output), lengths evaluated in input space.
//
// All three inherit Theorem 1's O(1) rounds and fully scalable space. EMD
// and densest ball agree exactly (same seeds) with sequential evaluations
// over the same Hierarchy, which the tests keep as their oracles.
#pragma once

#include "apps/mst.hpp"
#include "core/mpc_embedder.hpp"
#include "geometry/point_set.hpp"
#include "mpc/cluster.hpp"

namespace mpte {

/// Result of the distributed tree EMD.
struct MpcEmdResult {
  /// EMD under the hierarchy tree metric, in input units.
  double emd = 0.0;
  std::size_t rounds_used = 0;
  int retries_used = 0;
};

/// Distributed EMD between equal-size point sets `a` and `b`
/// (Corollary 1.3). Embeds a ∪ b once and routes all mass along the
/// hierarchy. Options as for mpc_embed.
Result<MpcEmdResult> mpc_tree_emd(mpc::Cluster& cluster, const PointSet& a,
                                  const PointSet& b,
                                  const MpcEmbedOptions& options);

/// Result of the distributed densest ball.
struct MpcDensestBallResult {
  /// Points in the best cluster.
  std::size_t count = 0;
  /// Lemma 1 diameter bound of that cluster, in input units.
  double diameter = 0.0;
  std::size_t rounds_used = 0;
  int retries_used = 0;
};

/// Distributed densest ball (Corollary 1.1): the largest hierarchy
/// cluster whose diameter bound is <= max_diameter (input units).
Result<MpcDensestBallResult> mpc_densest_ball(
    mpc::Cluster& cluster, const PointSet& points, double max_diameter,
    const MpcEmbedOptions& options);

/// Result of the distributed MST.
struct MpcMstResult {
  /// Spanning edges between input point indices; lengths are Euclidean in
  /// input units (evaluated at readout).
  std::vector<MstEdge> edges;
  double total_length = 0.0;
  std::size_t rounds_used = 0;
  int retries_used = 0;
};

/// Distributed approximate Euclidean MST (Corollary 1.2) via per-cluster
/// representatives.
Result<MpcMstResult> mpc_tree_mst(mpc::Cluster& cluster,
                                  const PointSet& points,
                                  const MpcEmbedOptions& options);

}  // namespace mpte
