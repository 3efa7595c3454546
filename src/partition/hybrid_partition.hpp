// Hybrid partitioning (Definition 3 / Algorithm 1) and the hierarchical
// drivers producing per-level cluster assignments.
//
// One hybrid level with parameters (w, r): the d dimensions are split into
// r contiguous buckets of d/r; each bucket runs an independent ball
// partitioning at scale w on the projected points; two points share a
// hybrid partition iff they share a ball in *every* bucket. r = 1 is pure
// ball partitioning; r = d (with touching balls) is grid partitioning.
//
// The hierarchy halves w per level. Cluster identity at level i is the
// hash chain of per-bucket ball ids along the whole path from the root, so
// the family of clusters is laminar by construction and equals the
// child-product construction in Algorithm 1. Scales start at
// w_1 = Delta*sqrt(d)/2 — high enough that the level-0 root's diameter
// bound covers the whole box, which is what makes the domination inequality
// (Lemma 2) hold at the first separation — and stop once the diameter
// bound 2*sqrt(r)*w drops below the minimum interpoint distance 1 of
// integer inputs, guaranteeing singleton leaves.
//
// Edge weights: the edge entering a level-i node weighs 2*sqrt(r)*w_i
// (hybrid; the within-cluster diameter bound) and sqrt(d)*w_i (grid; the
// cell diagonal). Both satisfy domination; see tree/embedding_builder.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "geometry/point_set.hpp"
#include "partition/ball_partition.hpp"

namespace mpte {

/// What to do with a point no grid covered (probability <= fail_prob).
enum class UncoveredPolicy {
  /// Report StatusCode::kCoverageFailure — Theorem 1's contract; the caller
  /// retries with a fresh seed.
  kFail,
  /// Give the point a private singleton ball. Keeps the run alive at the
  /// cost of unbounded distortion for that point's pairs (practical mode).
  kSingleton,
};

/// Per-level cluster assignments of a hierarchical partitioning — the
/// input to tree/embedding_builder. Level 0 is the root (all points share
/// one id); cluster ids are hash-chain values over the full path, so
/// chains continue below singleton clusters (the tree builder prunes those
/// — identically for the sequential and MPC paths).
struct Hierarchy {
  /// cluster_of_point[level][point]; level 0 .. levels().
  std::vector<std::vector<std::uint64_t>> cluster_of_point;
  /// Scale w_i per level (scales[0] is the notional root scale, unused).
  std::vector<double> scales;
  /// Weight of the tree edge *entering* a node on this level.
  std::vector<double> edge_weight;
  /// Buckets used (1 for ball, d for grid-style).
  std::uint32_t num_buckets = 1;
  /// Grids per (level, bucket) (0 for the grid method).
  std::size_t num_grids = 0;
  /// Total bytes explicit grid-shift storage would need (Lemma 8 metric).
  std::size_t explicit_grid_bytes = 0;
  /// Count of (point, level, bucket) cover misses resolved by the
  /// kSingleton policy (always 0 under kFail success).
  std::size_t uncovered_events = 0;

  std::size_t levels() const { return cluster_of_point.size(); }
  std::size_t num_points() const {
    return cluster_of_point.empty() ? 0 : cluster_of_point[0].size();
  }
};

/// The scale/weight ladder shared by the sequential and MPC hybrid
/// pipelines: w_i = w_max / 2^i with w_max = delta*sqrt(d), level count
/// chosen so the diameter bound 2*sqrt(r)*w_L < 1, and per-level edge
/// weights 2*sqrt(r)*w_i.
struct ScaleLadder {
  double w_max = 0.0;
  std::size_t levels = 0;
  /// scales[0] = w_max (root), scales[i] = w_max / 2^i, size levels+1.
  std::vector<double> scales;
  /// edge_weight[i] = weight of an edge entering a level-i node, size
  /// levels+1 (index 0 is 0).
  std::vector<double> edge_weight;
};

ScaleLadder hybrid_scale_ladder(std::size_t dim, std::uint32_t num_buckets,
                                std::uint64_t delta);

/// The ladder build_grid_hierarchy walks: w_max = 2*delta, cell width
/// halving per level until the cell diagonal sqrt(d)*w drops below 1,
/// edge weight sqrt(d)*w_i. Shared with mpte::dyn so incremental updates
/// reproduce the static levels exactly.
ScaleLadder grid_scale_ladder(std::size_t dim, std::uint64_t delta);

/// Per-level seed of the grid hierarchy's ShiftedGrid (counter-based, like
/// hybrid_grid_seed).
std::uint64_t grid_level_seed(std::uint64_t seed, std::size_t level);

/// Grid seed for (level, bucket) — the shared counter-based derivation.
std::uint64_t hybrid_grid_seed(std::uint64_t seed, std::size_t level,
                               std::uint32_t bucket);

/// Root cluster id for a run seed.
std::uint64_t hybrid_root_id(std::uint64_t seed);

/// What fixes the (level, bucket) grid sets of one hybrid hierarchy.
struct HybridChain {
  /// Partition seed: grid seeds (hybrid_grid_seed) and the root id.
  std::uint64_t seed = 0;
  /// Buckets r and per-bucket dimension k = ceil(d / r); coordinates past
  /// d read as 0 (footnote 3's zero padding).
  std::uint32_t num_buckets = 1;
  std::size_t bucket_dim = 1;
  /// Grids per (level, bucket).
  std::size_t num_grids = 1;
  /// The ladder's scales; scales[level] for level 1..scales.size() - 1.
  std::span<const double> scales;
  UncoveredPolicy uncovered = UncoveredPolicy::kFail;
};

/// Uncovered (point, level, bucket) events of one hybrid_path_ids call.
struct PathIdsReport {
  std::uint64_t uncovered = 0;
  /// The first event in (level, bucket, point) order, if uncovered > 0.
  std::size_t level = 0;
  std::uint32_t bucket = 0;
  std::size_t point = 0;
};

/// Receives one level's ids: parent[i] and child[i] are point i's cluster
/// ids at level - 1 and level.
using PathLevelSink =
    std::function<void(std::size_t level, std::span<const std::uint64_t> parent,
                       std::span<const std::uint64_t> child)>;

/// The hybrid id chain of Algorithm 1 for a block of points — the one copy
/// behind build_hierarchy (partition/plan.hpp), the MPC path stage and
/// mpte::dyn. Point
/// i's `dim` coordinates are rows[i * dim, (i + 1) * dim). Level by level
/// and bucket by bucket, one grid set assigns the whole block (read in
/// place with stride dim; only a zero-padded bucket is copied), and each
/// point's id folds in its ball id: id_level = hash(... hash(id_{level-1},
/// ball_0) ..., ball_{r-1}), starting from hybrid_root_id(chain.seed).
/// Each level is handed to `sink` once it is complete, in level order.
///
/// `grids` holds the grid sets in (level - 1) * r + bucket order, or is
/// empty to build each set when it is needed (one set live at a time).
/// An uncovered event is counted; under kFail its ball id is 0, under
/// kSingleton it is a private id salted with salts[i] (or i if `salts` is
/// empty). The ids depend only on (chain, coordinates, salt), never on
/// the loop order, so they equal a point-at-a-time walk of the same chain.
PathIdsReport hybrid_path_ids(const HybridChain& chain,
                              std::span<const double> rows, std::size_t dim,
                              std::span<const BallGrids> grids,
                              std::span<const std::uint64_t> salts,
                              const PathLevelSink& sink);

/// Builds Arora's random-shifted-grid hierarchy (the baseline): one grid
/// per level, cell width halving from delta, edge weight sqrt(d)*w.
/// Never fails (grids always cover).
Result<Hierarchy> build_grid_hierarchy(const PointSet& points,
                                       std::uint64_t delta,
                                       std::uint64_t seed);

}  // namespace mpte
