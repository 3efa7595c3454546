// Sample statistics and span arithmetic for the end-to-end benchmark.
//
// Header-only so the self-test checks exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <regex>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// nullopt when empty.
inline std::optional<double> median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

/// Median of the samples not flagged, or of all of them when every one
/// is: a figure is best taken over the samples a disturbance spared, but
/// never over none. `flagged` has one entry per sample.
inline std::optional<double> median_unflagged(const std::vector<double>& samples,
                                              const std::vector<bool>& flagged) {
  std::vector<double> kept;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!flagged[i]) kept.push_back(samples[i]);
  }
  return median(kept.empty() ? samples : std::move(kept));
}

/// Fewest samples that must lie above a reported percentile: a tail figure
/// resting on fewer is noise, so percentile() refuses to give one.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile q in (0, 100): the smallest sample with at
/// least q% of the samples at or below it. nullopt unless at least
/// kMinSamplesBeyond samples rank above it.
template <typename T>
std::optional<double> percentile(std::vector<T> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 100.0)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, n);
  if (n - k < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (k - 1), samples.end());
  return static_cast<double>(samples[k - 1]);
}

/// The fields of an obs::SpanEvent the breakdown needs.
struct SpanRecord {
  std::string name;  // "<category>/<name>", e.g. "emb/assemble"
  std::uint32_t thread = 0;
  std::uint32_t depth = 0;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;

  std::uint64_t end_us() const { return start_us + duration_us; }
};

/// Summed duration of the spans that nest directly under spans[root]: same
/// thread, one level deeper, and inside its interval. Spans on other
/// threads never count, since they overlap the root in time without being
/// part of its own thread's work.
inline std::uint64_t direct_children_us(const std::vector<SpanRecord>& spans,
                                        std::size_t root) {
  const SpanRecord& r = spans[root];
  std::uint64_t sum = 0;
  for (const SpanRecord& s : spans) {
    if (s.thread == r.thread && s.depth == r.depth + 1 &&
        s.start_us >= r.start_us && s.end_us() <= r.end_us()) {
      sum += s.duration_us;
    }
  }
  return sum;
}

/// A span's duration minus the part its direct children cover.
inline std::uint64_t self_time_us(const std::vector<SpanRecord>& spans,
                                  std::size_t root) {
  const std::uint64_t children = direct_children_us(spans, root);
  const std::uint64_t total = spans[root].duration_us;
  return total > children ? total - children : 0;
}

/// Self time over duration, pooled over every span named `root_name`: the
/// share of the roots' wall time no child span accounts for, i.e.
/// 1 - (sum of direct children / root).
/// nullopt when no such span was recorded or they all took zero time.
inline std::optional<double> unattributed_frac(
    const std::vector<SpanRecord>& spans, const std::string& root_name) {
  std::uint64_t total = 0, self = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != root_name) continue;
    total += spans[i].duration_us;
    self += self_time_us(spans, i);
  }
  if (total == 0) return std::nullopt;
  return static_cast<double>(self) / static_cast<double>(total);
}

/// Summed duration and count of the spans called `name`.
struct SpanTotal {
  double seconds = 0.0;
  std::size_t count = 0;
};

inline SpanTotal span_total(const std::vector<SpanRecord>& spans,
                            const std::string& name) {
  SpanTotal total;
  for (const SpanRecord& s : spans) {
    if (s.name != name) continue;
    total.seconds += static_cast<double>(s.duration_us) * 1e-6;
    ++total.count;
  }
  return total;
}

/// Metric and workload names: [A-Za-z0-9_.-]+, at most 64 characters,
/// starting with a letter or digit.
inline bool valid_name(const std::string& name) {
  static const std::regex pattern("[A-Za-z0-9][A-Za-z0-9_.-]*");
  return name.size() <= 64 && std::regex_match(name, pattern);
}

}  // namespace perfbench
