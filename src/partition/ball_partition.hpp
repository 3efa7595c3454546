// Ball partitioning (Charikar et al. [27]; Definition 2 of the paper).
//
// A ball partitioning at scale w draws a sequence of grids G_1, G_2, ...
// of cell width 4w, each shifted by an independent uniform vector in
// [0,4w)^k, and places a ball of radius w at every lattice point. A point
// belongs to the *first* ball (in grid order) that contains it; two points
// share a partition iff they share that first ball. Balls within one grid
// cannot overlap (radius w < half the cell width 2w), and U grids cover
// everything with probability controlled by Lemmas 6–7 (see
// partition/coverage.hpp).
//
// The grid shifts are counter-based: shift component (u, t) is a pure
// function of (seed, u, t), so a "grid set" is 32 bytes of parameters —
// that is what machines exchange. (Locally each BallGrids caches the
// num_grids × dim shift table at construction so the assignment inner
// loop indexes instead of rehashing; the cache never leaves the host.)
// This is the PRG-seed form of the
// same object the paper stores explicitly (Lemma 8 space accounting);
// explicit_storage_bytes() reports what explicit storage would cost so the
// E7 bench can compare against the Lemma-8 budget. Assignment scans grids
// in order and stops at the first cover, so expected work per point is
// O(k / p_k) independent of U.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point_set.hpp"

namespace mpte {

/// Sentinel ball id for a point no grid covered.
inline constexpr std::uint64_t kUncovered = ~0ull;

/// The sequence of U shifted ball-grids used by one (level, bucket) of a
/// partitioning. Immutable once constructed.
class BallGrids {
 public:
  /// Grids of radius `radius` (cell width 4*radius) in `dim` dimensions.
  BallGrids(std::size_t dim, double radius, std::size_t num_grids,
            std::uint64_t seed);

  std::size_t dim() const { return dim_; }
  double radius() const { return radius_; }
  double cell_width() const { return cell_; }
  std::size_t num_grids() const { return num_grids_; }
  std::uint64_t seed() const { return seed_; }

  /// Shift component t of grid u, uniform in [0, cell_width); a pure
  /// function of (seed, u, t), precomputed into a table at construction
  /// (assign() reads it per point per dimension).
  double shift(std::size_t grid, std::size_t t) const {
    return shifts_by_dim_[t * num_grids_ + grid];
  }

  /// The id of the first ball containing p (hash of grid index and lattice
  /// cell), or kUncovered if no grid covers p. p.size() must equal dim().
  std::uint64_t assign(std::span<const double> p) const;

  /// Like assign, but also reports how many grids were scanned (the
  /// geometric-trials statistic benches check against 1/p_k).
  std::uint64_t assign_counted(std::span<const double> p,
                               std::size_t* grids_scanned) const;

  /// assign() over out.size() points at once: point i's dim() coordinates
  /// start at coords[i * stride] (stride >= dim()), so one bucket of
  /// row-major points is read in place. out[i] equals assign() of point i
  /// bit for bit; the batched kernel keeps this grid set's shift table hot
  /// across the whole block.
  void assign_batch(std::span<const double> coords, std::size_t stride,
                    std::span<std::uint64_t> out) const;

  /// Bytes explicit shift storage would need: num_grids * dim * 8. The
  /// paper's Lemma 8 accounting charges this; the counter-based
  /// representation actually uses O(1).
  std::size_t explicit_storage_bytes() const {
    return num_grids_ * dim_ * sizeof(double);
  }

 private:
  /// The id of grid u's ball around p (u covers p): a hash of u and p's
  /// lattice cell in grid u.
  std::uint64_t ball_id(const double* p, std::size_t u) const;

  std::size_t dim_;
  double radius_;
  std::size_t num_grids_;
  std::uint64_t seed_;
  /// Cell width (4 * radius), its reciprocal, and radius^2, precomputed so
  /// the assignment inner loop carries no per-call derivations.
  double cell_;
  double inv_cell_;
  double radius_sq_;
  /// Precomputed shift table in grid-minor (transposed) layout,
  /// shifts_by_dim_[t * num_grids_ + u] = shift(u, t), so the vectorized
  /// lattice scan — grids in the lanes — loads four consecutive grids'
  /// shifts for one dimension with a single unit-stride load. A local
  /// cache only — the object's identity (and wire form) is still the
  /// 32-byte parameter tuple.
  std::vector<double> shifts_by_dim_;
};

/// Result of ball-partitioning a point set at one scale.
struct BallPartitionResult {
  /// Per point: the first covering ball's id, or kUncovered.
  std::vector<std::uint64_t> ball_of_point;
  /// Number of uncovered points.
  std::size_t uncovered = 0;
  /// Total grids scanned over all points (work/probe statistic).
  std::size_t total_grids_scanned = 0;
};

/// Assigns every point of `points` (dimension must equal grids.dim()).
BallPartitionResult ball_partition(const PointSet& points,
                                   const BallGrids& grids);

}  // namespace mpte
