// Shared helper for the SIMD kernel benches (bench_parallel_scaling,
// bench_fwht): sweeps every available backend over one kernel workload,
// reports per-backend GB/s and speedup-vs-scalar as benchmark counters,
// mirrors them into an obs::Registry under the mpte_simd_kernel_* names,
// and persists machine-readable artifacts next to the binary:
//
//   BENCH_simd.json          rows of {kernel, backend, ms, gb_per_s,
//                            speedup_vs_scalar}
//   BENCH_simd.metrics.prom  the same numbers as Prometheus gauges
//
// Artifacts are rewritten after every sweep with all rows recorded so far
// by this process, so the files are complete whenever the run stops.
// Rows recorded by an earlier process (bench_parallel_scaling and
// bench_fwht both write here) are preserved: the recorder loads any
// existing BENCH_simd.json on first use and replaces rows kernel-by-kernel
// rather than clobbering the file.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"

namespace mpte::bench {

struct SimdKernelRow {
  std::string kernel;
  std::string backend;
  double ms = 0.0;
  double gb_per_s = 0.0;
  double speedup_vs_scalar = 0.0;
};

/// Process-wide accumulator behind the BENCH_simd artifacts.
class SimdBenchRecorder {
 public:
  static SimdBenchRecorder& global() {
    static SimdBenchRecorder recorder;
    return recorder;
  }

  /// Replaces any earlier row for the same (kernel, backend) — including
  /// one loaded from a previous process's artifact — then appends.
  void add(SimdKernelRow row) {
    std::erase_if(rows_, [&row](const SimdKernelRow& r) {
      return r.kernel == row.kernel && r.backend == row.backend;
    });
    rows_.push_back(std::move(row));
  }

  /// Rewrites BENCH_simd.json and BENCH_simd.metrics.prom from all rows.
  void write_artifacts() const {
    std::ostringstream json;
    json << "{\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const auto& r = rows_[i];
      json << (i == 0 ? "\n" : ",\n");
      json << "    {\"kernel\": \"" << r.kernel << "\", \"backend\": \""
           << r.backend << "\", \"ms\": " << r.ms
           << ", \"gb_per_s\": " << r.gb_per_s
           << ", \"speedup_vs_scalar\": " << r.speedup_vs_scalar << "}";
    }
    json << "\n  ]\n}\n";

    obs::Registry registry;
    for (const auto& r : rows_) {
      const obs::Labels labels = {{"backend", r.backend},
                                  {"kernel", r.kernel}};
      registry
          .gauge("mpte_simd_kernel_gb_per_s",
                 "Kernel throughput in gigabytes per second", labels)
          .set(r.gb_per_s);
      registry
          .gauge("mpte_simd_kernel_speedup",
                 "Kernel wall-clock speedup over the scalar backend",
                 labels)
          .set(r.speedup_vs_scalar);
      registry
          .gauge("mpte_simd_kernel_ms", "Kernel wall-clock milliseconds",
                 labels)
          .set(r.ms);
    }
    const std::string prom = registry.prometheus_text();
    const auto bytes = [](const std::string& text) {
      return std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    };
    (void)write_file_atomic("BENCH_simd.json", bytes(json.str()));
    (void)write_file_atomic("BENCH_simd.metrics.prom", bytes(prom));
  }

 private:
  SimdBenchRecorder() { load_existing(); }

  /// Seeds the accumulator from a BENCH_simd.json left by another bench
  /// binary. The file is this class's own one-row-per-line output, so a
  /// line scanner is enough — anything unparseable is simply dropped.
  void load_existing() {
    std::ifstream in("BENCH_simd.json");
    if (!in) return;
    const auto str_field = [](const std::string& line, const std::string& key,
                              std::string& out) {
      const std::string tag = "\"" + key + "\": \"";
      const auto start = line.find(tag);
      if (start == std::string::npos) return false;
      const auto begin = start + tag.size();
      const auto end = line.find('"', begin);
      if (end == std::string::npos) return false;
      out = line.substr(begin, end - begin);
      return true;
    };
    const auto num_field = [](const std::string& line, const std::string& key,
                              double& out) {
      const std::string tag = "\"" + key + "\": ";
      const auto start = line.find(tag);
      if (start == std::string::npos) return false;
      out = std::strtod(line.c_str() + start + tag.size(), nullptr);
      return true;
    };
    std::string line;
    while (std::getline(in, line)) {
      SimdKernelRow row;
      if (str_field(line, "kernel", row.kernel) &&
          str_field(line, "backend", row.backend) &&
          num_field(line, "ms", row.ms) &&
          num_field(line, "gb_per_s", row.gb_per_s) &&
          num_field(line, "speedup_vs_scalar", row.speedup_vs_scalar)) {
        rows_.push_back(std::move(row));
      }
    }
  }

  std::vector<SimdKernelRow> rows_;
};

/// Rounds of a backend sweep: enough for the per-round win count to decide
/// a 9-in-10 comparison against scalar.
inline constexpr std::size_t kSweepRounds = 10;

/// Median of `values` (non-empty).
inline double simd_median_ms(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Times `fn` on every available backend (forcing each via set_backend,
/// then restoring the dispatch default) over kSweepRounds rounds. Each
/// round runs every backend once, starting one backend later than the
/// previous round, so none always runs first on a host whose speed
/// drifts. Records counters "<backend>_ms" (the median),
/// "<backend>_gbps", "<backend>_speedup" (scalar median / median) and
/// "<backend>_wins" (rounds in which it beat scalar) on `state`, and
/// appends the rows to the BENCH_simd artifacts. `bytes_per_call` is the
/// number of bytes one fn() invocation streams (for GB/s).
template <typename Fn>
void simd_backend_sweep(benchmark::State& state, const std::string& kernel,
                        double bytes_per_call, Fn&& fn) {
  const simd::Backend saved = simd::active_backend();
  const std::vector<simd::Backend> backends = simd::available_backends();
  fn();  // warm caches and lazy set-up outside the timed rounds
  // ms[b][round]; available_backends() lists scalar first.
  std::vector<std::vector<double>> ms(backends.size());
  for (std::size_t round = 0; round < kSweepRounds; ++round) {
    for (std::size_t i = 0; i < backends.size(); ++i) {
      const std::size_t b = (round + i) % backends.size();
      simd::set_backend(backends[b]);
      Timer timer;
      fn();
      ms[b].push_back(timer.milliseconds());
    }
  }
  simd::set_backend(saved);
  const double scalar_ms = simd_median_ms(ms[0]);
  for (std::size_t b = 0; b < backends.size(); ++b) {
    std::size_t wins = 0;
    for (std::size_t round = 0; round < kSweepRounds; ++round) {
      wins += ms[b][round] < ms[0][round];
    }
    SimdKernelRow row;
    row.kernel = kernel;
    row.backend = simd::backend_name(backends[b]);
    row.ms = simd_median_ms(ms[b]);
    row.gb_per_s = row.ms > 0.0 ? bytes_per_call / (row.ms * 1e6) : 0.0;
    row.speedup_vs_scalar = row.ms > 0.0 ? scalar_ms / row.ms : 0.0;
    state.counters[row.backend + "_ms"] = row.ms;
    state.counters[row.backend + "_gbps"] = row.gb_per_s;
    state.counters[row.backend + "_speedup"] = row.speedup_vs_scalar;
    state.counters[row.backend + "_wins"] = static_cast<double>(wins);
    SimdBenchRecorder::global().add(std::move(row));
  }
  SimdBenchRecorder::global().write_artifacts();
}

}  // namespace mpte::bench
