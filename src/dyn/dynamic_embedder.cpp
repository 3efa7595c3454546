#include "dyn/dynamic_embedder.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "geometry/bounding_box.hpp"
#include "geometry/quantize.hpp"
#include "obs/trace.hpp"
#include "partition/coverage.hpp"
#include "tree/embedding_builder.hpp"

namespace mpte::dyn {

void QuantFrame::snap(std::span<const double> src,
                      std::span<double> dst) const {
  for (std::size_t j = 0; j < src.size(); ++j) {
    const double offset = (src[j] - lo[j]) / cell;
    double snapped = std::round(offset);
    snapped = std::clamp(snapped, 0.0, static_cast<double>(delta - 1));
    dst[j] = snapped + 1.0;
  }
}

Result<DynamicEmbedder> DynamicEmbedder::create(const PointSet& initial,
                                                const DynOptions& options) {
  if (initial.size() < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "DynamicEmbedder: need at least two initial points");
  }
  DynamicEmbedder dyn;
  dyn.method_ = options.method;
  dyn.dim_ = initial.dim();
  dyn.seed_ = options.seed;
  // The static path's attempt-0 seed: incremental updates cannot re-seed
  // (that would change every existing point's column), so the pinned run
  // is exactly retry attempt 0.
  dyn.part_seed_ = hash_combine(mix64(options.seed), 0);
  dyn.fail_prob_ = options.fail_prob;
  dyn.uncovered_ = options.uncovered;

  std::uint64_t delta = 0;
  {
    const obs::Span span("emb", "delta");
    delta = options.delta > 0
                ? options.delta
                : recommended_delta(initial, options.quantize_eps, 1ull << 20);
    if (delta < 2) {
      return Status(StatusCode::kInvalidArgument,
                    "DynamicEmbedder: delta must be >= 2");
    }
    const BoundingBox box = BoundingBox::of(initial);
    const double width = box.width();
    dyn.frame_.lo = box.lo();
    dyn.frame_.cell =
        width > 0.0 ? width / static_cast<double>(delta - 1) : 1.0;
    dyn.frame_.delta = delta;
  }

  if (options.method == PartitionMethod::kGrid) {
    dyn.num_buckets_ = static_cast<std::uint32_t>(dyn.dim_);
    dyn.num_grids_ = 0;
    dyn.bucket_dim_ = dyn.dim_;
    dyn.ladder_ = grid_scale_ladder(dyn.dim_, delta);
    dyn.level_grids_.reserve(dyn.ladder_.levels);
    for (std::size_t level = 1; level <= dyn.ladder_.levels; ++level) {
      dyn.level_grids_.emplace_back(dyn.dim_, dyn.ladder_.scales[level],
                                    grid_level_seed(dyn.part_seed_, level));
    }
  } else {
    const std::uint32_t r =
        options.method == PartitionMethod::kBall
            ? 1
            : (options.num_buckets > 0
                   ? options.num_buckets
                   : auto_num_buckets(initial.size(), dyn.dim_,
                                      options.max_bucket_dim));
    if (r < 1 || r > dyn.dim_) {
      return Status(StatusCode::kInvalidArgument,
                    "DynamicEmbedder: need 1 <= num_buckets <= dim");
    }
    dyn.num_buckets_ = r;
    dyn.bucket_dim_ = ceil_div(dyn.dim_, static_cast<std::size_t>(r));
    dyn.ladder_ = hybrid_scale_ladder(dyn.dim_, r, delta);
    dyn.num_grids_ =
        options.num_grids > 0
            ? options.num_grids
            : recommended_num_grids(dyn.bucket_dim_, initial.size(), r,
                                    dyn.ladder_.levels, options.fail_prob);
    if (const Status feasible =
            check_grid_set_size(dyn.bucket_dim_, dyn.num_grids_);
        !feasible.ok()) {
      return feasible;
    }
    dyn.grids_.reserve(dyn.ladder_.levels * r);
    for (std::size_t level = 1; level <= dyn.ladder_.levels; ++level) {
      for (std::uint32_t j = 0; j < r; ++j) {
        dyn.grids_.emplace_back(dyn.bucket_dim_, dyn.ladder_.scales[level],
                                dyn.num_grids_,
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
  const std::size_t height = dyn.ladder_.levels + 1;
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
  const std::size_t height = ladder_.levels + 1;
  const std::size_t n = ids.size();
  for (std::size_t i = 0; i < n; ++i) {
    columns[i * height] = hybrid_root_id(part_seed_);
  }
  if (method_ == PartitionMethod::kGrid) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = snapped.subspan(i * dim_, dim_);
      for (std::size_t level = 1; level <= ladder_.levels; ++level) {
        columns[i * height + level] =
            hash_combine(columns[i * height + level - 1],
                         level_grids_[level - 1].cell_id(row));
      }
    }
    return Status::Ok();
  }
  HybridChain chain;
  chain.seed = part_seed_;
  chain.num_buckets = num_buckets_;
  chain.bucket_dim = bucket_dim_;
  chain.num_grids = num_grids_;
  chain.scales = ladder_.scales;
  chain.uncovered = uncovered_;
  // The kSingleton fallback is salted with the stable id (the static
  // builder salts with the dense index) — see the byte-identity caveat in
  // the header.
  const PathIdsReport report = hybrid_path_ids(
      chain, snapped, dim_, grids_, ids,
      [&](std::size_t level, std::span<const std::uint64_t>,
          std::span<const std::uint64_t> child) {
        for (std::size_t i = 0; i < n; ++i) {
          columns[i * height + level] = child[i];
        }
      });
  if (report.uncovered > 0 && uncovered_ == UncoveredPolicy::kFail) {
    return Status(StatusCode::kCoverageFailure,
                  "ball partitioning left point id " +
                      std::to_string(ids[report.point]) +
                      " uncovered at level " + std::to_string(report.level) +
                      " bucket " + std::to_string(report.bucket) + " (U=" +
                      std::to_string(num_grids_) + ")");
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
  Record record;
  record.snapped.resize(dim_);
  frame_.snap(coords, record.snapped);
  // A block of one over the cached grid sets.
  record.column.resize(ladder_.levels + 1);
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
  Hierarchy h;
  h.num_buckets = num_buckets_;
  h.num_grids = num_grids_;
  h.scales = ladder_.scales;
  h.edge_weight = ladder_.edge_weight;
  h.cluster_of_point.assign(ladder_.levels + 1,
                            std::vector<std::uint64_t>(n));
  PointSet points(n, dim_);
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  std::size_t i = 0;
  // std::map iterates in ascending id order — the dense order of the
  // equivalent static build.
  for (const auto& [id, record] : records_) {
    for (std::size_t level = 0; level <= ladder_.levels; ++level) {
      h.cluster_of_point[level][i] = record.column[level];
    }
    std::copy(record.snapped.begin(), record.snapped.end(),
              points[i].begin());
    ids.push_back(id);
    ++i;
  }
  Embedding embedding{
      build_hst(h),
      std::move(points),
      frame_.cell,
      frame_.delta,
      num_buckets_,
      num_grids_,
      dim_,
      /*fjlt_applied=*/false,
      /*retries_used=*/0,
      std::move(ids),
  };
  return embedding;
}

EmbedOptions DynamicEmbedder::static_equivalent_options() const {
  EmbedOptions options;
  options.method = method_;
  options.num_buckets = num_buckets_;
  options.delta = frame_.delta;
  options.seed = seed_;
  options.use_fjlt = false;
  options.num_grids = num_grids_;
  options.fail_prob = fail_prob_;
  options.uncovered = uncovered_;
  // Byte-identity is pinned to retry attempt 0.
  options.max_retries = 0;
  return options;
}

}  // namespace mpte::dyn
