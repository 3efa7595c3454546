// E12b: end-to-end embedding throughput and near-linear work scaling. The
// per-point cost should stay roughly flat as n grows (levels depend on
// Delta, not n; expected ball probes are O(1/p_k) per level).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/embedder.hpp"
#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"
#include "partition/coverage.hpp"
#include "partition/hybrid_partition.hpp"
#include "partition/plan.hpp"
#include "tree/embedding_builder.hpp"

namespace mpte::bench {
namespace {

void BM_EmbedHybrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(n, 6, 50.0, 3 + n);
  EmbedOptions options;
  options.use_fjlt = false;
  options.delta = 1 << 12;
  options.seed = 5;
  for (auto _ : state) {
    auto result = embed(points, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().to_string().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->tree.num_nodes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EmbedHybrid)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);

// Host Delta derivation (EXPERIMENTS.md E16): recommended_delta's exact
// closest-pair search. Args: input kind (0 = the 8 Gaussian clusters of
// perfbench's mpc workloads, 1 = uniform cube), n, d.
void BM_RecommendedDelta(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto d = static_cast<std::size_t>(state.range(2));
  const PointSet points =
      state.range(0) == 0 ? generate_gaussian_clusters(n, d, 8, 100.0, 1.0, 1)
                          : generate_uniform_cube(n, d, 1.0, 1);
  std::uint64_t delta = 0;
  for (auto _ : state) {
    delta = recommended_delta(points, 0.05, 1ull << 20);
    benchmark::DoNotOptimize(delta);
  }
  state.counters["delta"] = static_cast<double>(delta);
}
BENCHMARK(BM_RecommendedDelta)
    ->Args({0, 10000, 16})
    ->Args({0, 40000, 16})
    ->Args({0, 250000, 16})
    ->Args({1, 40000, 16})
    ->Args({1, 20000, 128})
    ->Args({1, 8000, 512})
    ->Unit(benchmark::kMillisecond);

// One machine's hybrid id chains (EXPERIMENTS.md E17): hybrid_path_ids
// over a block of quantized points, one (level, bucket) grid set at a
// time — the work of the MPC paths/compute step. Args: points on the
// machine, dim, buckets r, Delta, and the job's total n (which sets U).
// 4000 x 310 with r = 104 is one of mpc-fjlt-proc's four machines;
// 10000 x 16 with r = 6 is one of mpc-auto's.
void BM_HybridPathIds(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  const auto r = static_cast<std::uint32_t>(state.range(2));
  const auto delta = static_cast<std::uint64_t>(state.range(3));
  const auto n_total = static_cast<std::size_t>(state.range(4));
  const PointSet points =
      quantize_to_grid(generate_gaussian_clusters(n, d, 8, 100.0, 1.0, 1),
                       delta)
          .points;
  const ScaleLadder ladder = hybrid_scale_ladder(d, r, delta);
  HybridChain chain;
  chain.seed = 5;
  chain.num_buckets = r;
  chain.bucket_dim = (d + r - 1) / r;
  chain.num_grids = recommended_num_grids(chain.bucket_dim, n_total, r,
                                          ladder.levels, 1e-6);
  chain.scales = ladder.scales;
  chain.uncovered = UncoveredPolicy::kSingleton;
  // The point-major output slots paths/compute writes.
  std::vector<std::uint64_t> slots(n * ladder.levels);
  for (auto _ : state) {
    hybrid_path_ids(chain, points.raw(), d, {}, {},
                    [&](std::size_t level, std::span<const std::uint64_t>,
                        std::span<const std::uint64_t> child) {
                      for (std::size_t i = 0; i < n; ++i) {
                        slots[i * ladder.levels + level - 1] = child[i];
                      }
                    });
    benchmark::DoNotOptimize(slots.data());
    benchmark::ClobberMemory();
  }
  state.counters["levels"] = static_cast<double>(ladder.levels);
  state.counters["grids"] = static_cast<double>(chain.num_grids);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HybridPathIds)
    ->Args({4000, 310, 104, 4096, 16000})
    ->Args({10000, 16, 6, 1024, 40000})
    ->Unit(benchmark::kMillisecond);

// The one tree assembly (EXPERIMENTS.md E19) on the hybrid hierarchy of
// n clustered points in R^16 (8 clusters, perfbench's mpc input; Delta
// derived, seed 5). Args: the caller (0 = the build_hst adapter on the
// hierarchy, one edge per (level, point); 1 = mpc_embed's readout,
// assemble_tree on the hierarchy's deduplicated edges in a shuffled
// gather order) and n.
void BM_AssembleTree(benchmark::State& state) {
  const bool readout = state.range(0) == 1;
  const auto n = static_cast<std::size_t>(state.range(1));
  const PointSet raw = generate_gaussian_clusters(n, 16, 8, 100.0, 1.0, 1);
  const std::uint64_t delta = recommended_delta(raw, 0.05, 1ull << 20);
  const PointSet points = quantize_to_grid(raw, delta).points;
  PartitionOptions options;
  options.uncovered = UncoveredPolicy::kSingleton;
  const auto plan =
      plan_partition(PartitionMethod::kHybrid, n, 16, delta, options);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().to_string().c_str());
    return;
  }
  const auto hierarchy = build_hierarchy(points, *plan, 5);
  if (!hierarchy.ok()) {
    state.SkipWithError(hierarchy.status().to_string().c_str());
    return;
  }
  const auto& ids = hierarchy->cluster_of_point;
  std::vector<TreeEdge> edges;
  for (std::size_t level = 1; level < ids.size(); ++level) {
    for (std::size_t i = 0; i < n; ++i) {
      edges.push_back(TreeEdge{ids[level][i], ids[level - 1][i]});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const TreeEdge& a, const TreeEdge& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.child < b.child;
            });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  Rng rng(7);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.uniform_u64(i)]);
  }
  std::vector<TreeLeaf> leaves(n);
  for (std::size_t i = 0; i < n; ++i) leaves[i] = TreeLeaf{i, ids.back()[i]};

  std::size_t nodes = 0;
  for (auto _ : state) {
    const Hst tree = readout ? assemble_tree(edges, leaves, ids[0][0], n,
                                             hierarchy->edge_weight)
                             : build_hst(*hierarchy);
    nodes = tree.num_nodes();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["edges"] = static_cast<double>(edges.size());
  state.counters["nodes"] = static_cast<double>(nodes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AssembleTree)
    ->Args({0, 20000})
    ->Args({1, 20000})
    ->Args({0, 250000})
    ->Args({1, 250000})
    ->Unit(benchmark::kMillisecond);

void BM_EmbedGridBaseline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(n, 6, 50.0, 3 + n);
  EmbedOptions options;
  options.method = PartitionMethod::kGrid;
  options.use_fjlt = false;
  options.delta = 1 << 12;
  options.seed = 7;
  for (auto _ : state) {
    auto result = embed(points, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().to_string().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->tree.num_nodes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EmbedGridBaseline)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);

void BM_EmbedWithFjlt(benchmark::State& state) {
  // High-dimensional input through the full pipeline.
  const std::size_t n = 1024;
  const auto d = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(n, d, 50.0, 11);
  EmbedOptions options;
  options.use_fjlt = true;
  options.fjlt_xi = 0.45;
  options.delta = 1 << 12;
  options.seed = 13;
  for (auto _ : state) {
    auto result = embed(points, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().to_string().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->tree.num_nodes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EmbedWithFjlt)
    ->Arg(128)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_TreeDistanceQueries(benchmark::State& state) {
  const std::size_t n = 4096;
  const PointSet points = generate_uniform_cube(n, 6, 50.0, 17);
  EmbedOptions options;
  options.use_fjlt = false;
  options.delta = 1 << 12;
  auto result = embed(points, options);
  if (!result.ok()) {
    state.SkipWithError(result.status().to_string().c_str());
    return;
  }
  const Hst& tree = result->tree;
  std::size_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.distance(i % n, (i * 7919) % n));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TreeDistanceQueries)->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace mpte::bench
