// The end-to-end benchmark's workloads (see README.md beside this file).
//
// Each workload generates its inputs from one seed, sets up, runs a timed
// closed loop against the public mpte API, checks the outputs, and returns
// its metrics. The untraced run reports the end-to-end metrics; the traced
// run repeats the timed phase with obs::Tracer and obs::ProfilingHooks
// armed and reports the per-layer breakdown instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every input size; below 1 only for the self-test's smoke.
  double scale = 1.0;
  /// Start of the first set-up: process start when built in main().
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Value of a per-layer metric whose layer the workload does not run. No
/// per-layer metric can measure -1 (all are >= 0 except the tracing
/// overhead ratio, which is > -1), while a 0 would read as "ran and cost
/// nothing".
inline constexpr double kAbsent = -1.0;

struct RunReport {
  /// Operations attempted and failed: timed operations plus output checks.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  bool correct() const { return attempted > 0 && failed == 0; }
};

/// Names and units of the metrics each mode reports, in output order.
const std::vector<Metric>& end_to_end_metrics();
const std::vector<Metric>& per_layer_metrics();
const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument on an unknown name.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
