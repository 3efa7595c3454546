// DynamicEmbedder — incremental HST maintenance for one embedding.
//
// The static pipeline (core/embedder.hpp) derives a point's cluster id at
// every level as a hash chain over per-level, per-bucket ball (or grid
// cell) ids, and each of those ids is a *pure function of (seed, level,
// coordinates)* — no point's id depends on any other point. That is the
// whole reason the construction dynamizes (Goranci et al. 2025, PAPERS.md):
// inserting or erasing a point changes exactly one root-to-leaf column of
// the hierarchy, O(depth) cells, and leaves every other point's column
// untouched.
//
// A DynamicEmbedder pins everything the static pipeline would derive from
// the point set as a whole — delta, the quantization frame (QuantFrame,
// geometry/quantize.hpp: per-dimension lows + cell width), the partition
// plan (partition/plan.hpp: bucket count r, grid count U, the scale
// ladder), and the partition structures for every (level, bucket) — at
// creation, through the front-end calls embed() makes, then
// maintains a map from stable point id to that point's snapped coordinates
// and cluster-id column. insert() computes one new column (O(levels * r)
// ball probes); erase() drops one. materialize() hands the live columns,
// in ascending-id order, as edges and leaf records to the *same*
// assemble_tree every pipeline runs, so the produced tree is
// byte-identical (hst_to_bytes) to
// embed(final_points, static_equivalent_options()) whenever the final
// set's bounding box matches the pinned frame — the core correctness
// contract, asserted by tests/test_dyn.cpp.
//
// Determinism caveats (see docs/dynamic-embeddings.md):
//  * No FJLT: the transform's output dimension is a function of n, which
//    changes under updates. Dynamic instances always embed raw
//    (quantized) coordinates.
//  * UncoveredPolicy::kSingleton salts the fallback ball id with the
//    point's *stable id*, where the static builder salts with the dense
//    index; byte-identity therefore requires zero uncovered events
//    (guaranteed under kFail, overwhelmingly likely under the default
//    fail_prob).
//  * The partition seed is the static path's attempt-0 retry seed. If
//    attempt 0 would fail coverage, create()/insert() report
//    kCoverageFailure instead of silently re-seeding (re-seeding would
//    reshuffle every existing point's column — a full rebuild).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "core/embedder.hpp"
#include "core/front_end.hpp"
#include "geometry/point_set.hpp"
#include "geometry/quantize.hpp"
#include "partition/ball_partition.hpp"
#include "partition/grid_partition.hpp"
#include "partition/plan.hpp"

namespace mpte::dyn {

/// Options for DynamicEmbedder::create(). Zeros mean "resolve from the
/// initial point set, then pin", by the calls embed() makes; after creation
/// nothing auto-adapts. The partition seed is attempt_seed(seed, 0).
struct DynOptions : FrontEndOptions {
  PartitionMethod method = PartitionMethod::kHybrid;
};

class DynamicEmbedder {
 public:
  /// Pins the configuration against `initial` (>= 2 points) and inserts
  /// its points with ids 0..n-1. Fails with kCoverageFailure when the
  /// pinned seed leaves a point uncovered under kFail (retry with a
  /// different options.seed).
  static Result<DynamicEmbedder> create(const PointSet& initial,
                                        const DynOptions& options);

  DynamicEmbedder(DynamicEmbedder&&) = default;
  DynamicEmbedder& operator=(DynamicEmbedder&&) = default;
  DynamicEmbedder(const DynamicEmbedder&) = delete;
  DynamicEmbedder& operator=(const DynamicEmbedder&) = delete;

  /// Inserts a point given in *input* units; returns its new stable id.
  /// O(levels * r) partition probes — the O(depth) update of the paper.
  Result<std::uint64_t> insert(std::span<const double> coords);

  /// Inserts under a caller-chosen id (ensemble members must agree on
  /// ids). Fails with kInvalidArgument if the id is live, the dimension
  /// is wrong or a coordinate is NaN or infinite.
  Status insert_with_id(std::uint64_t id, std::span<const double> coords);

  /// Removes a live point. Fails with kInvalidArgument on an unknown id,
  /// or when the removal would leave fewer than 2 points (embed()'s own
  /// lower bound).
  Status erase(std::uint64_t id);

  bool contains(std::uint64_t id) const { return records_.count(id) != 0; }
  std::size_t size() const { return records_.size(); }
  std::size_t dim() const { return dim_; }
  std::size_t levels() const { return plan_.ladder.levels; }
  /// The id insert() will assign next (monotonic, never reused).
  std::uint64_t next_id() const { return next_id_; }
  /// Live ids in ascending order — the dense order materialize() uses.
  std::vector<std::uint64_t> live_ids() const;
  const QuantFrame& frame() const { return frame_; }

  /// Cumulative count of hierarchy cells (point-level cluster ids)
  /// recomputed by inserts — the "subtree nodes re-embedded" statistic.
  /// Each insert adds levels()+1; erases add nothing (they only drop a
  /// column).
  std::uint64_t cells_recomputed() const { return cells_recomputed_; }

  /// Rebuilds the full Embedding over the live set: each column, in
  /// ascending id order, is one edge per level plus its bottom id as the
  /// leaf record, into the shared assemble_tree. O(n * depth) records and
  /// one sort of them, no partition probes. Byte-identical to the static build over the same
  /// final set (see file comment for the exact conditions). Traced as
  /// dyn/materialize.
  Result<Embedding> materialize() const;

  /// The EmbedOptions a from-scratch embed() needs to reproduce this
  /// instance's trees: every pinned parameter made explicit, FJLT off.
  EmbedOptions static_equivalent_options() const;

 private:
  struct Record {
    /// Snapped coordinates, dim() entries in {1, ..., delta}.
    std::vector<double> snapped;
    /// Cluster-id column, levels()+1 entries (level 0 = root id).
    std::vector<std::uint64_t> column;
  };

  DynamicEmbedder() = default;

  /// Computes the cluster-id columns of a block of snapped points: row i
  /// (snapped[i * dim()], stable id ids[i]) gets levels()+1 ids at
  /// columns[i * (levels() + 1)]. ids only salt the kSingleton fallback
  /// and name the point of a kFail status. create() passes its initial
  /// set as one block, insert a block of one.
  Status compute_columns(std::span<const double> snapped,
                         std::span<const std::uint64_t> ids,
                         std::span<std::uint64_t> columns) const;

  std::size_t dim_ = 0;
  std::uint64_t seed_ = 0;       // embed()-level root seed
  std::uint64_t part_seed_ = 0;  // attempt-0 partition seed
  double fail_prob_ = 1e-6;
  QuantFrame frame_;
  PartitionPlan plan_;
  /// Hybrid/ball: grids_[(level-1) * r + bucket]; immutable once built.
  std::vector<BallGrids> grids_;
  /// Grid method: one ShiftedGrid per level (index level-1).
  std::vector<ShiftedGrid> level_grids_;

  std::map<std::uint64_t, Record> records_;
  std::uint64_t next_id_ = 0;
  std::uint64_t cells_recomputed_ = 0;
};

}  // namespace mpte::dyn
