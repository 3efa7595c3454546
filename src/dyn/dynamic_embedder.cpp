#include "dyn/dynamic_embedder.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "tree/embedding_builder.hpp"

namespace mpte::dyn {

Result<DynamicEmbedder> DynamicEmbedder::create(const PointSet& initial,
                                                const DynOptions& options) {
  if (initial.size() < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "DynamicEmbedder: need at least two initial points");
  }
  DynamicEmbedder dyn;
  dyn.dim_ = initial.dim();
  dyn.seed_ = options.seed;
  // The static path's attempt-0 seed: incremental updates cannot re-seed
  // (that would change every existing point's column), so the pinned run
  // is exactly retry attempt 0.
  dyn.part_seed_ = attempt_seed(options.seed, 0);
  dyn.fail_prob_ = options.fail_prob;

  {
    const obs::Span span("emb", "delta");
    const Result<std::uint64_t> delta = resolve_delta(
        options, [&]() -> const PointSet& { return initial; });
    if (!delta.ok()) return delta.status();
    dyn.frame_ = QuantFrame::of(BoundingBox::of(initial), *delta);
  }
  Result<PartitionPlan> plan =
      plan_partition(options.method, initial.size(), dyn.dim_,
                     dyn.frame_.delta, options);
  if (!plan.ok()) return plan.status();
  dyn.plan_ = std::move(plan).value();

  const ScaleLadder& ladder = dyn.plan_.ladder;
  if (dyn.plan_.method == PartitionMethod::kGrid) {
    dyn.level_grids_.reserve(ladder.levels);
    for (std::size_t level = 1; level <= ladder.levels; ++level) {
      dyn.level_grids_.emplace_back(dyn.dim_, ladder.scales[level],
                                    grid_level_seed(dyn.part_seed_, level));
    }
  } else {
    const std::uint32_t r = dyn.plan_.num_buckets;
    dyn.grids_.reserve(ladder.levels * r);
    for (std::size_t level = 1; level <= ladder.levels; ++level) {
      for (std::uint32_t j = 0; j < r; ++j) {
        dyn.grids_.emplace_back(dyn.plan_.bucket_dim, ladder.scales[level],
                                dyn.plan_.num_grids,
                                hybrid_grid_seed(dyn.part_seed_, level, j));
      }
    }
  }

  // The initial set is one block with ids 0..n-1: snap every point, then
  // compute all columns grid set by grid set.
  const std::size_t n = initial.size();
  std::vector<double> snapped(n * dyn.dim_);
  for (std::size_t i = 0; i < n; ++i) {
    dyn.frame_.snap(initial[i], std::span<double>(snapped).subspan(
                                    i * dyn.dim_, dyn.dim_));
  }
  std::vector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::uint64_t{0});
  const std::size_t height = ladder.levels + 1;
  std::vector<std::uint64_t> columns(n * height);
  if (const Status computed = dyn.compute_columns(snapped, ids, columns);
      !computed.ok()) {
    return computed;
  }
  for (std::size_t i = 0; i < n; ++i) {
    Record record;
    record.snapped.assign(snapped.begin() + i * dyn.dim_,
                          snapped.begin() + (i + 1) * dyn.dim_);
    record.column.assign(columns.begin() + i * height,
                         columns.begin() + (i + 1) * height);
    dyn.records_.emplace_hint(dyn.records_.end(), i, std::move(record));
  }
  // The seed pass is the build, not an update stream: cells_recomputed_
  // counts update work from zero.
  dyn.next_id_ = n;
  return dyn;
}

Status DynamicEmbedder::compute_columns(
    std::span<const double> snapped, std::span<const std::uint64_t> ids,
    std::span<std::uint64_t> columns) const {
  const std::size_t levels = plan_.ladder.levels;
  const std::size_t height = levels + 1;
  const std::size_t n = ids.size();
  for (std::size_t i = 0; i < n; ++i) {
    columns[i * height] = hybrid_root_id(part_seed_);
  }
  if (plan_.method == PartitionMethod::kGrid) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = snapped.subspan(i * dim_, dim_);
      for (std::size_t level = 1; level <= levels; ++level) {
        columns[i * height + level] =
            hash_combine(columns[i * height + level - 1],
                         level_grids_[level - 1].cell_id(row));
      }
    }
    return Status::Ok();
  }
  // The kSingleton fallback is salted with the stable id (the static
  // builder salts with the dense index) — see the byte-identity caveat in
  // the header.
  const PathIdsReport report = hybrid_path_ids(
      plan_.chain(part_seed_), snapped, dim_, grids_, ids,
      [&](std::size_t level, std::span<const std::uint64_t>,
          std::span<const std::uint64_t> child) {
        for (std::size_t i = 0; i < n; ++i) {
          columns[i * height + level] = child[i];
        }
      });
  if (report.uncovered > 0 && plan_.uncovered == UncoveredPolicy::kFail) {
    return Status(StatusCode::kCoverageFailure,
                  "ball partitioning left point id " +
                      std::to_string(ids[report.point]) +
                      " uncovered at level " + std::to_string(report.level) +
                      " bucket " + std::to_string(report.bucket) + " (U=" +
                      std::to_string(plan_.num_grids) + ")");
  }
  return Status::Ok();
}

Result<std::uint64_t> DynamicEmbedder::insert(std::span<const double> coords) {
  const std::uint64_t id = next_id_;
  const Status inserted = insert_with_id(id, coords);
  if (!inserted.ok()) return inserted;
  return id;
}

Status DynamicEmbedder::insert_with_id(std::uint64_t id,
                                       std::span<const double> coords) {
  if (coords.size() != dim_) {
    return Status(StatusCode::kInvalidArgument,
                  "insert: point has dimension " +
                      std::to_string(coords.size()) + ", embedder has " +
                      std::to_string(dim_));
  }
  if (records_.count(id) != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "insert: id " + std::to_string(id) + " is already live");
  }
  // The snap would clamp an infinite coordinate to the box edge and pass
  // NaN through into the grid ids; neither is a point.
  for (std::size_t j = 0; j < coords.size(); ++j) {
    if (!std::isfinite(coords[j])) {
      return Status(StatusCode::kInvalidArgument,
                    "insert: coordinate " + std::to_string(j) +
                        " is not finite");
    }
  }
  Record record;
  record.snapped.resize(dim_);
  frame_.snap(coords, record.snapped);
  // A block of one over the cached grid sets.
  record.column.resize(levels() + 1);
  const Status computed =
      compute_columns(record.snapped, std::span<const std::uint64_t>(&id, 1),
                      record.column);
  if (!computed.ok()) return computed;
  cells_recomputed_ += record.column.size();
  records_.emplace(id, std::move(record));
  next_id_ = std::max(next_id_, id + 1);
  return Status::Ok();
}

Status DynamicEmbedder::erase(std::uint64_t id) {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return Status(StatusCode::kInvalidArgument,
                  "erase: no live point with id " + std::to_string(id));
  }
  if (records_.size() <= 2) {
    return Status(StatusCode::kInvalidArgument,
                  "erase: embedder needs at least two live points");
  }
  records_.erase(it);
  return Status::Ok();
}

std::vector<std::uint64_t> DynamicEmbedder::live_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(records_.size());
  for (const auto& [id, record] : records_) ids.push_back(id);
  return ids;
}

Result<Embedding> DynamicEmbedder::materialize() const {
  const std::size_t n = records_.size();
  if (n < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "materialize: need at least two live points");
  }
  const obs::Span span("dyn", "materialize", "points", n);
  // Each record's column is its root-to-leaf path: one edge per level and
  // its bottom id as the leaf. std::map iterates in ascending id order —
  // the dense order of the equivalent static build.
  std::vector<TreeEdge> edges;
  edges.reserve(n * levels());
  std::vector<TreeLeaf> leaves;
  leaves.reserve(n);
  PointSet points(n, dim_);
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (const auto& [id, record] : records_) {
    const std::size_t i = ids.size();
    for (std::size_t level = 1; level <= levels(); ++level) {
      edges.push_back(
          TreeEdge{record.column[level], record.column[level - 1]});
    }
    leaves.push_back(TreeLeaf{i, record.column[levels()]});
    std::copy(record.snapped.begin(), record.snapped.end(),
              points[i].begin());
    ids.push_back(id);
  }
  Embedding embedding{
      assemble_tree(std::move(edges), std::move(leaves),
                    records_.begin()->second.column[0], n,
                    plan_.ladder.edge_weight),
      std::move(points),
      frame_.cell,
      frame_.delta,
      plan_.num_buckets,
      plan_.num_grids,
      dim_,
      /*fjlt_applied=*/false,
      /*retries_used=*/0,
      std::move(ids),
  };
  return embedding;
}

EmbedOptions DynamicEmbedder::static_equivalent_options() const {
  EmbedOptions options;
  options.method = plan_.method;
  options.num_buckets = plan_.num_buckets;
  options.delta = frame_.delta;
  options.seed = seed_;
  options.use_fjlt = false;
  options.num_grids = plan_.num_grids;
  options.fail_prob = fail_prob_;
  options.uncovered = plan_.uncovered;
  // Byte-identity is pinned to retry attempt 0.
  options.max_retries = 0;
  return options;
}

}  // namespace mpte::dyn
