// Wall-clock scaling of the shared-memory parallel runtime (mpte::par).
//
// Unlike the other benches (which measure algorithmic quantities), this one
// measures *time*: for cluster round execution and for each parallelized
// point kernel, it times the 1-thread path and the T-thread path over the
// same input and reports both plus the speedup. Run on a multi-core host;
// on a single hardware thread the "speedup" column measures only pool
// overhead (oversubscribed software threads cannot beat one core).
//
// Counters per row (threads = the benchmark Arg):
//   serial_ms   best-of-reps wall-clock of the 1-thread path
//   par_ms      best-of-reps wall-clock at `threads`
//   speedup     serial_ms / par_ms
//   hw_threads  hardware concurrency of this host, for reading the table
//
// The BM_Simd* benches at the bottom sweep the other axis — the
// dispatched kernel backend at a fixed single thread — reporting per-
// backend GB/s and speedup-vs-scalar, and writing the BENCH_simd.json /
// BENCH_simd.metrics.prom artifacts (bench/simd_bench_util.hpp).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "geometry/generators.hpp"
#include "mpc/cluster.hpp"
#include "partition/ball_partition.hpp"
#include "partition/grid_partition.hpp"
#include "simd_bench_util.hpp"
#include "transform/dense_jl.hpp"
#include "transform/sparse_jl.hpp"
#include "transform/walsh_hadamard.hpp"
#include "tree/distortion.hpp"
#include "core/embedder.hpp"

namespace mpte::bench {
namespace {

/// Best-of-`reps` wall-clock milliseconds of fn().
template <typename Fn>
double best_ms(Fn&& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.milliseconds());
  }
  return best;
}

/// Times `fn` at 1 thread and at `threads` (via the process default, which
/// every kernel call site resolves), reporting the standard counters.
template <typename Fn>
void report_scaling(benchmark::State& state, std::size_t threads, Fn&& fn) {
  par::set_default_threads(1);
  const double serial_ms = best_ms(fn);
  par::set_default_threads(threads);
  const double par_ms = best_ms(fn);
  par::set_default_threads(0);
  state.counters["serial_ms"] = serial_ms;
  state.counters["par_ms"] = par_ms;
  state.counters["speedup"] = par_ms > 0.0 ? serial_ms / par_ms : 0.0;
  state.counters["hw_threads"] =
      static_cast<double>(par::hardware_threads());
}

/// Acceptance workload: Cluster::run_round on a 64-machine pipeline whose
/// per-machine step does real local work (an FWHT over a local buffer),
/// the shape of every compute round in Algorithm 2.
void BM_ClusterRoundScaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kMachines = 64;
  constexpr std::size_t kLocalDim = 1 << 12;
  constexpr std::size_t kRounds = 8;
  for (auto _ : state) {
    auto run = [&](std::size_t num_threads) {
      mpc::ClusterConfig config;
      config.num_machines = kMachines;
      config.local_memory_bytes = 1 << 22;
      config.enforce_limits = false;
      config.num_threads = num_threads;
      mpc::Cluster cluster(config);
      for (mpc::MachineId id = 0; id < kMachines; ++id) {
        std::vector<double> local(kLocalDim);
        for (std::size_t i = 0; i < kLocalDim; ++i) {
          local[i] = static_cast<double>((id + 1) * (i + 1) % 97);
        }
        cluster.store(id).set_vector("w", local);
      }
      for (std::size_t round = 0; round < kRounds; ++round) {
        cluster.run_round([](mpc::MachineContext& ctx) {
          auto local = ctx.store().get_vector<double>("w");
          fwht_normalized(local);
          fwht_normalized(local);  // involution: keeps values bounded
          ctx.store().set_vector("w", local);
        });
      }
    };
    par::set_default_threads(0);
    const double serial_ms = best_ms([&] { run(1); });
    const double par_ms = best_ms([&] { run(threads); });
    state.counters["serial_ms"] = serial_ms;
    state.counters["par_ms"] = par_ms;
    state.counters["speedup"] = par_ms > 0.0 ? serial_ms / par_ms : 0.0;
    state.counters["hw_threads"] =
        static_cast<double>(par::hardware_threads());
  }
}
BENCHMARK(BM_ClusterRoundScaling)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// Acceptance workload: fwht_points on n = 20k, d = 1024.
void BM_FwhtPointsScaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(20000, 1024, 10.0, 7);
  for (auto _ : state) {
    report_scaling(state, threads, [&] {
      benchmark::DoNotOptimize(fwht_points(points));
    });
  }
}
BENCHMARK(BM_FwhtPointsScaling)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_DenseJlScaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(4000, 512, 10.0, 11);
  const DenseJl jl(512, 64, 23);
  for (auto _ : state) {
    report_scaling(state, threads,
                   [&] { benchmark::DoNotOptimize(jl.transform(points)); });
  }
}
BENCHMARK(BM_DenseJlScaling)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_SparseJlScaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(20000, 512, 10.0, 13);
  const SparseJl jl(512, 64, 29);
  for (auto _ : state) {
    report_scaling(state, threads,
                   [&] { benchmark::DoNotOptimize(jl.transform(points)); });
  }
}
BENCHMARK(BM_SparseJlScaling)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_BallPartitionScaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(100000, 12, 8.0, 17);
  const BallGrids grids(12, 2.0, 64, 31);
  for (auto _ : state) {
    report_scaling(state, threads, [&] {
      benchmark::DoNotOptimize(ball_partition(points, grids));
    });
  }
}
BENCHMARK(BM_BallPartitionScaling)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_GridPartitionScaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(200000, 16, 8.0, 19);
  const ShiftedGrid grid(16, 1.5, 37);
  for (auto _ : state) {
    report_scaling(state, threads, [&] {
      benchmark::DoNotOptimize(grid_partition(points, grid));
    });
  }
}
BENCHMARK(BM_GridPartitionScaling)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_ExpectedDistortionScaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const PointSet points = generate_uniform_cube(600, 8, 20.0, 3);
  EmbedOptions options;
  options.delta = 1024;
  std::vector<Hst> forest;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    options.seed = s;
    auto result = embed(points, options);
    if (result.ok()) forest.push_back(std::move(result->tree));
  }
  for (auto _ : state) {
    report_scaling(state, threads, [&] {
      benchmark::DoNotOptimize(
          measure_expected_distortion(forest, points, 120000, 5));
    });
  }
}
BENCHMARK(BM_ExpectedDistortionScaling)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// SIMD backend sweeps: single thread, every compiled-in backend, per-kernel
// GB/s and speedup over the scalar reference. The acceptance targets live
// here: fwht_points and the batched squared-L2 path must beat scalar by
// >= 2x on an AVX2 host.

void BM_SimdFwhtPoints(benchmark::State& state) {
  // Cache-resident batch, repeated: this host streams DRAM at ~23 GB/s,
  // so a one-shot multi-MB batch measures the memory bus, not the
  // butterflies. The batch is also kept under the glibc mmap threshold —
  // fwht_points allocates its output per call, and a larger batch would
  // spend backend-independent time in mmap/page faults every iteration.
  constexpr std::size_t kN = 2, kD = 4096, kReps = 800;
  const PointSet points = generate_uniform_cube(kN, kD, 10.0, 7);
  // log2(d) butterfly passes, each touching every element twice (read +
  // write), plus the normalization pass.
  const double bytes_per_call =
      static_cast<double>(kReps * kN * kD * sizeof(double)) *
      (2.0 * 12.0 + 2.0);
  par::set_default_threads(1);
  for (auto _ : state) {
    simd_backend_sweep(state, "fwht_points", bytes_per_call, [&] {
      for (std::size_t r = 0; r < kReps; ++r) {
        benchmark::DoNotOptimize(fwht_points(points));
      }
    });
  }
  par::set_default_threads(0);
}
BENCHMARK(BM_SimdFwhtPoints)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SimdL2Batch(benchmark::State& state) {
  constexpr std::size_t kN = 1200, kD = 256;
  const PointSet points = generate_uniform_cube(kN, kD, 10.0, 9);
  const double bytes_per_call =
      static_cast<double>(kN) * static_cast<double>(kN - 1) / 2.0 * 2.0 *
      static_cast<double>(kD * sizeof(double));
  par::set_default_threads(1);
  for (auto _ : state) {
    simd_backend_sweep(state, "l2sq_batch", bytes_per_call, [&] {
      benchmark::DoNotOptimize(pairwise_distance_extremes(points));
    });
  }
  par::set_default_threads(0);
}
BENCHMARK(BM_SimdL2Batch)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SimdDenseJl(benchmark::State& state) {
  constexpr std::size_t kN = 2000, kIn = 512, kOut = 64;
  const PointSet points = generate_uniform_cube(kN, kIn, 10.0, 11);
  const DenseJl jl(kIn, kOut, 23);
  const double bytes_per_call =
      static_cast<double>(kN * kOut * kIn * sizeof(double));
  par::set_default_threads(1);
  for (auto _ : state) {
    simd_backend_sweep(state, "dense_jl_gemv", bytes_per_call, [&] {
      benchmark::DoNotOptimize(jl.transform(points));
    });
  }
  par::set_default_threads(0);
}
BENCHMARK(BM_SimdDenseJl)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SimdSparseJl(benchmark::State& state) {
  constexpr std::size_t kN = 8000, kIn = 512, kOut = 64;
  const PointSet points = generate_uniform_cube(kN, kIn, 10.0, 13);
  const SparseJl jl(kIn, kOut, 29);
  // Per nonzero: the value plus the gathered coordinate.
  const double bytes_per_call =
      static_cast<double>(kN * jl.nonzeros()) * 2.0 * sizeof(double);
  par::set_default_threads(1);
  for (auto _ : state) {
    simd_backend_sweep(state, "sparse_jl_csr", bytes_per_call, [&] {
      benchmark::DoNotOptimize(jl.transform(points));
    });
  }
  par::set_default_threads(0);
}
BENCHMARK(BM_SimdSparseJl)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SimdBallAssign(benchmark::State& state) {
  constexpr std::size_t kN = 50000, kD = 12, kGrids = 64;
  const PointSet points = generate_uniform_cube(kN, kD, 8.0, 17);
  const BallGrids grids(kD, 2.0, kGrids, 31);
  // Upper bound: every grid's shift row for every dimension.
  const double bytes_per_call =
      static_cast<double>(kN * kD * kGrids * sizeof(double));
  par::set_default_threads(1);
  for (auto _ : state) {
    simd_backend_sweep(state, "ball_first_cover", bytes_per_call, [&] {
      benchmark::DoNotOptimize(ball_partition(points, grids));
    });
  }
  par::set_default_threads(0);
}
BENCHMARK(BM_SimdBallAssign)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SimdBallAssignBatch(benchmark::State& state) {
  // The production grid-set shape: buckets of k = 3 dims with U = 461
  // grids (mpc-fjlt-proc's 310 dims in r = 104 buckets), one set assigning
  // a block of points the way hybrid_path_ids drives it.
  constexpr std::size_t kN = 50000, kD = 3, kGrids = 461;
  const PointSet points = generate_uniform_cube(kN, kD, 100.0, 17);
  const BallGrids grids(kD, 2.0, kGrids, 31);
  std::vector<std::uint64_t> ids(kN);
  // Shift bytes the scans actually read: grids scanned (rounded up to
  // whole 4-grid blocks) times k doubles.
  std::size_t blocks = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    std::size_t scanned = 0;
    (void)grids.assign_counted(points[i], &scanned);
    blocks += (scanned + 3) / 4;
  }
  const double bytes_per_call =
      static_cast<double>(blocks * 4 * kD * sizeof(double));
  par::set_default_threads(1);
  for (auto _ : state) {
    simd_backend_sweep(state, "ball_first_cover_batch", bytes_per_call, [&] {
      grids.assign_batch(points.raw(), kD, ids);
      benchmark::DoNotOptimize(ids.data());
      benchmark::ClobberMemory();
    });
  }
  par::set_default_threads(0);
}
BENCHMARK(BM_SimdBallAssignBatch)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_SimdGridPartition(benchmark::State& state) {
  constexpr std::size_t kN = 100000, kD = 16;
  const PointSet points = generate_uniform_cube(kN, kD, 8.0, 19);
  const ShiftedGrid grid(kD, 1.5, 37);
  const double bytes_per_call =
      static_cast<double>(kN * kD * sizeof(double)) * 3.0;
  par::set_default_threads(1);
  for (auto _ : state) {
    simd_backend_sweep(state, "lattice_floor", bytes_per_call, [&] {
      benchmark::DoNotOptimize(grid_partition(points, grid));
    });
  }
  par::set_default_threads(0);
}
BENCHMARK(BM_SimdGridPartition)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mpte::bench
