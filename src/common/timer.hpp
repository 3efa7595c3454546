// Wall-clock timing for examples and benches (google-benchmark does its own
// timing; this is for the example programs' human-readable reports).
#pragma once

#include <chrono>

namespace mpte {

/// Monotonic stopwatch started at construction.
class Timer {
 public:
  Timer();

  /// Elapsed seconds since construction.
  double seconds() const;

  /// Elapsed milliseconds since construction.
  double milliseconds() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mpte
