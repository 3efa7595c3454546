// Checkpointing cost model: what round-level snapshots add to an mpc_embed
// run, and what a crash costs to recover from.
//
//   BM_CheckpointOverhead — wall-clock of the full pipeline with the
//     every-1 / every-4 / off policies; counters report snapshots written,
//     bytes per snapshot, and the fraction of run time spent serializing.
//   BM_RecoveryFromMidRunCrash — a rank crash halfway through the round
//     schedule, recovered from the newest snapshot; counters split total
//     time into (run + recover + replay) and report recovery seconds as
//     measured by the cluster's own resilience counters.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "ckpt/fault.hpp"
#include "ckpt/manager.hpp"
#include "ckpt/recovery.hpp"
#include "core/mpc_embedder.hpp"
#include "geometry/generators.hpp"

namespace mpte::bench {
namespace {

namespace fs = std::filesystem;

using mpc::Cluster;
using mpc::ClusterConfig;

ClusterConfig base_config() {
  ClusterConfig config;
  config.num_machines = 8;
  config.local_memory_bytes = 1 << 22;
  return config;
}

MpcEmbedOptions embed_options() {
  MpcEmbedOptions options;
  options.seed = 17;
  options.num_buckets = 2;
  options.delta = 1024;
  options.use_fjlt = false;
  return options;
}

fs::path scratch_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("mpte_bench_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// state.range(0) = checkpoint period k (0 = checkpointing off).
void BM_CheckpointOverhead(benchmark::State& state) {
  const auto every = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(600, 10, 30.0, 5);
  const fs::path dir = scratch_dir("overhead_" + std::to_string(every));

  std::size_t checkpoints = 0, bytes = 0, rounds = 0;
  double ckpt_seconds = 0.0;
  for (auto _ : state) {
    ClusterConfig config = base_config();
    if (every > 0) {
      config.checkpoint.directory = dir.string();
      config.checkpoint.every_k = every;
    }
    Cluster cluster(config);
    ckpt::Coordinator coordinator = ckpt::Coordinator::for_cluster(cluster);
    if (every > 0) cluster.set_hooks(&coordinator);
    const auto result = mpc_embed(cluster, points, embed_options());
    if (!result.ok()) state.SkipWithError("embed failed");
    benchmark::DoNotOptimize(result);
    const auto& resilience = cluster.stats().resilience();
    checkpoints = resilience.checkpoints_written;
    bytes = resilience.checkpoint_bytes;
    ckpt_seconds = resilience.checkpoint_seconds;
    rounds = cluster.stats().rounds();
  }
  state.counters["every_k"] = static_cast<double>(every);
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["checkpoints"] = static_cast<double>(checkpoints);
  state.counters["bytes_per_ckpt"] =
      checkpoints > 0 ? static_cast<double>(bytes) /
                            static_cast<double>(checkpoints)
                      : 0.0;
  state.counters["ckpt_ms_total"] = 1e3 * ckpt_seconds;
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointOverhead)
    ->Arg(0)   // off: the baseline
    ->Arg(4)   // every 4 rounds
    ->Arg(1)   // every round: worst case
    ->Unit(benchmark::kMillisecond);

/// Crash at round state.range(0), checkpoint every round, resume-recover.
void BM_RecoveryFromMidRunCrash(benchmark::State& state) {
  const auto crash_round = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(600, 10, 30.0, 5);
  const fs::path dir = scratch_dir("recovery_" + std::to_string(crash_round));

  double recovery_seconds = 0.0;
  std::size_t replayed = 0;
  for (auto _ : state) {
    ClusterConfig config = base_config();
    config.checkpoint.directory = dir.string();
    config.checkpoint.every_k = 1;
    Cluster cluster(config);

    ckpt::FaultPlan plan;
    plan.add_crash(crash_round, 3);
    ckpt::Coordinator coordinator =
        ckpt::Coordinator::for_cluster(cluster, std::move(plan));
    cluster.set_hooks(&coordinator);
    const auto result = ckpt::run_with_recovery(cluster, coordinator, [&] {
      return mpc_embed(cluster, points, embed_options());
    });
    if (!result.ok()) state.SkipWithError("recovery failed");
    benchmark::DoNotOptimize(result);
    const auto& resilience = cluster.stats().resilience();
    recovery_seconds = resilience.recovery_seconds;
    replayed = resilience.rounds_replayed;
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  state.counters["crash_round"] = static_cast<double>(crash_round);
  state.counters["rounds_replayed"] = static_cast<double>(replayed);
  state.counters["recovery_ms"] = 1e3 * recovery_seconds;
  fs::remove_all(dir);
}
BENCHMARK(BM_RecoveryFromMidRunCrash)
    ->Arg(6)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mpte::bench
