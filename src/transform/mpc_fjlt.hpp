// MPC implementation of the Fast Johnson–Lindenstrauss Transform
// (Algorithm 3 / Theorem 3).
//
// The pipeline computes k^{-1/2}·P·H·D·A with A the d×n point matrix
// distributed across machines, in O(1) rounds:
//
//   * D is applied entry-wise with no communication (counter-based
//     randomness: D_jj is a pure function of the shared seed).
//   * H (the orthonormal Walsh–Hadamard transform) is where the paper
//     invokes the MPC FFT of [45]. We implement the transform directly via
//     the Kronecker factorization H_d = ⊗_t H_{f_t}: each point's d_padded
//     coordinates are a tensor whose axes are bit-chunks of the index; one
//     FWHT along an axis needs only that axis's f_t <= b elements
//     co-resident, so each stage is a hash shuffle (group = index with the
//     axis digits removed) plus local butterflies. Two regimes:
//       - d <= b^2: one local FWHT_b, one transpose, one strided FWHT_g —
//         the minimal 2-factor split (4 rounds);
//       - any d <= b^m: the general m-stage pipeline (m + 3 rounds),
//         m = ceil(log d / log b) = O(1/eps) in the fully scalable regime.
//   * P is applied as local partial sums (every machine regenerates exactly
//     the P columns covering its resident coordinates, again counter-based)
//     followed by one shuffle keyed by (point, output row) to the point's
//     owner machine, which accumulates and scales by k^{-1/2}.
//
// When a whole padded point fits in a machine (the common case after the
// caps below), the "local mode" short-circuits all communication: each
// machine applies the sequential Fjlt to its chunk — bit-identical output,
// one round.
// Every mode leaves its output on the machines, in the block layout of
// mpc/point_blocks.hpp, where Algorithm 2's later stages read it.
#pragma once

#include "geometry/point_set.hpp"
#include "mpc/cluster.hpp"
#include "transform/fjlt.hpp"

namespace mpte {

/// Execution report of one MPC FJLT run.
struct MpcFjltReport {
  /// Rounds consumed by this call (delta of cluster.stats()).
  std::size_t rounds = 0;
  /// True if a sharded (distributed-FWHT) path ran; false for local mode.
  bool sharded = false;
  /// Block size b used by a sharded path (0 in local mode).
  std::size_t block_size = 0;
  /// Kronecker factors applied: 0 local, 2 for the one-transpose path
  /// (d <= b^2), m >= 3 for the general multi-stage path (any d <= b^m).
  std::size_t kronecker_levels = 0;
};

/// Runs the MPC FJLT on `cluster`: scatters `points` (host-side input
/// loading), executes the rounds, and leaves the k-dimensional output
/// resident. Round/space accounting accumulates in cluster.stats(). In
/// local mode the output is bit-identical to Fjlt(config) applied
/// sequentially; in sharded mode it is equal up to floating-point
/// summation order of the P partial sums.
///
/// Throws MpcViolation if the cluster's local memory cannot hold even one
/// sqrt(d_padded)-sized block (the fully scalable regime assumption).
MpcFjltReport mpc_fjlt(mpc::Cluster& cluster, const PointSet& points,
                       const FjltConfig& config);

}  // namespace mpte
