#include "partition/hybrid_partition.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/rng.hpp"
#include "partition/ball_partition.hpp"
#include "partition/grid_partition.hpp"

namespace mpte {
namespace {

/// Number of levels so the diameter bound `diameter_factor * w` drops
/// below 1 (the minimum distance of integer inputs): smallest L with
/// diameter_factor * w_max / 2^L < 1.
std::size_t ladder_levels(double w_max, double diameter_factor) {
  const double target = diameter_factor * w_max;
  if (target < 1.0) return 1;
  return static_cast<std::size_t>(std::floor(std::log2(target))) + 1;
}

}  // namespace

ScaleLadder grid_scale_ladder(std::size_t dim, std::uint64_t delta) {
  ScaleLadder ladder;
  const double sqrt_d = std::sqrt(static_cast<double>(dim));
  // w_1 = delta: one level-1 cell can contain the whole box.
  ladder.w_max = 2.0 * static_cast<double>(delta);
  ladder.levels = ladder_levels(ladder.w_max, sqrt_d);
  ladder.scales.push_back(ladder.w_max);
  ladder.edge_weight.push_back(0.0);
  for (std::size_t level = 1; level <= ladder.levels; ++level) {
    const double w = ladder.w_max / std::exp2(static_cast<double>(level));
    ladder.scales.push_back(w);
    ladder.edge_weight.push_back(sqrt_d * w);
  }
  return ladder;
}

std::uint64_t grid_level_seed(std::uint64_t seed, std::size_t level) {
  return hash_combine(mix64(seed ^ 0x96d1ull), level);
}

ScaleLadder hybrid_scale_ladder(std::size_t dim, std::uint32_t num_buckets,
                                std::uint64_t delta) {
  ScaleLadder ladder;
  const double sqrt_r = std::sqrt(static_cast<double>(num_buckets));
  ladder.w_max =
      static_cast<double>(delta) * std::sqrt(static_cast<double>(dim));
  ladder.levels = ladder_levels(ladder.w_max, 2.0 * sqrt_r);
  ladder.scales.push_back(ladder.w_max);
  ladder.edge_weight.push_back(0.0);
  for (std::size_t level = 1; level <= ladder.levels; ++level) {
    const double w = ladder.w_max / std::exp2(static_cast<double>(level));
    ladder.scales.push_back(w);
    ladder.edge_weight.push_back(2.0 * sqrt_r * w);
  }
  return ladder;
}

std::uint64_t hybrid_grid_seed(std::uint64_t seed, std::size_t level,
                               std::uint32_t bucket) {
  return hash_combine(hash_combine(mix64(seed ^ 0x9b1d5ull), level), bucket);
}

std::uint64_t hybrid_root_id(std::uint64_t seed) {
  return mix64(seed ^ 0x700a0ull);
}

PathIdsReport hybrid_path_ids(const HybridChain& chain,
                              std::span<const double> rows, std::size_t dim,
                              std::span<const BallGrids> grids,
                              std::span<const std::uint64_t> salts,
                              const PathLevelSink& sink) {
  const std::size_t n = dim == 0 ? 0 : rows.size() / dim;
  const std::size_t levels = chain.scales.empty() ? 0 : chain.scales.size() - 1;
  const std::size_t k = chain.bucket_dim;
  const std::uint32_t r = chain.num_buckets;
  if (dim == 0 || rows.size() != n * dim || k * r < dim ||
      (!salts.empty() && salts.size() != n) ||
      (!grids.empty() && grids.size() != levels * r)) {
    throw MpteError("hybrid_path_ids: inconsistent block or chain");
  }
  PathIdsReport report;
  std::vector<std::uint64_t> parent(n, hybrid_root_id(chain.seed));
  std::vector<std::uint64_t> child(n);
  std::vector<std::uint64_t> balls(n);
  // A bucket reaching past dim is copied, zero-padded, through a small
  // block buffer; every other bucket is read in place.
  constexpr std::size_t kPadRows = 256;
  std::vector<double> padded;
  std::optional<BallGrids> built;
  for (std::size_t level = 1; level <= levels; ++level) {
    child = parent;
    for (std::uint32_t j = 0; j < r; ++j) {
      const BallGrids& set =
          grids.empty()
              ? built.emplace(k, chain.scales[level], chain.num_grids,
                              hybrid_grid_seed(chain.seed, level, j))
              : grids[(level - 1) * r + j];
      const std::size_t first = j * k;
      if (first + k <= dim) {
        set.assign_batch(rows.subspan(first), dim, balls);
      } else {
        const std::size_t real = first < dim ? dim - first : 0;
        padded.assign(kPadRows * k, 0.0);
        for (std::size_t b = 0; b < n; b += kPadRows) {
          const std::size_t m = std::min(kPadRows, n - b);
          for (std::size_t i = 0; i < m; ++i) {
            const double* src = rows.data() + (b + i) * dim + first;
            std::copy(src, src + real, padded.begin() + i * k);
          }
          set.assign_batch(std::span<const double>(padded).first(m * k), k,
                           std::span<std::uint64_t>(balls).subspan(b, m));
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t ball = balls[i];
        if (ball == kUncovered) {
          if (report.uncovered++ == 0) {
            report.level = level;
            report.bucket = j;
            report.point = i;
          }
          ball = chain.uncovered == UncoveredPolicy::kFail
                     ? 0
                     : hash_combine(hash_combine(mix64(0xdeadull),
                                                 salts.empty() ? i : salts[i]),
                                    hash_combine(level, j));
        }
        child[i] = hash_combine(child[i], ball);
      }
    }
    sink(level, parent, child);
    parent.swap(child);
  }
  return report;
}

Result<Hierarchy> build_grid_hierarchy(const PointSet& points,
                                       std::uint64_t delta,
                                       std::uint64_t seed) {
  if (points.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "build_grid_hierarchy: empty point set");
  }
  if (delta < 1) {
    return Status(StatusCode::kInvalidArgument,
                  "build_grid_hierarchy: delta must be >= 1");
  }
  const std::size_t d = points.dim();
  const std::size_t n = points.size();
  const ScaleLadder ladder = grid_scale_ladder(d, delta);

  Hierarchy h;
  h.num_buckets = static_cast<std::uint32_t>(d);
  h.scales = ladder.scales;
  h.edge_weight = ladder.edge_weight;
  h.cluster_of_point.emplace_back(n, hybrid_root_id(seed));

  for (std::size_t level = 1; level <= ladder.levels; ++level) {
    const double w = ladder.scales[level];
    std::vector<std::uint64_t> next = h.cluster_of_point.back();
    const ShiftedGrid grid(d, w, grid_level_seed(seed, level));
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = hash_combine(next[i], grid.cell_id(points[i]));
    }
    h.cluster_of_point.push_back(std::move(next));
  }

  return h;
}

}  // namespace mpte
