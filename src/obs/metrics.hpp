// Metrics registry: counters, gauges, and log2 histograms with
// Prometheus-text exposition.
//
// The registry is the single numeric source of truth for every stats
// surface in the repo: `RoundStats::summary()`, the serve `stats` and
// `metrics` wire verbs, and the `--metrics-out` CLI flag all render from
// a registry filled by the same exporter functions, so two outputs can
// never disagree about a count.
//
// Naming convention (docs/observability.md):
//   mpte_<subsystem>_<quantity>[_<unit>][_total]
// `_total` marks monotonic counters, `_bytes`/`_seconds`/`_ms` the unit.
// Labels are an optional sorted key=value map (e.g. the per-channel byte
// counters use {channel="emb/edges"}).
//
// Thread safety: metric handles returned by the registry are stable for
// the registry's lifetime and updated with relaxed atomics; registering
// and rendering take a mutex. Creation is idempotent — asking for an
// existing (name, labels) pair returns the same handle.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mpte::obs {

/// Sorted label set; the empty map is the unlabeled series.
using Labels = std::map<std::string, std::string>;

/// Monotonic counter. `set` exists for snapshot-style export, where the
/// authoritative count lives elsewhere and the registry mirrors it.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram over non-negative integer samples (bytes,
/// microseconds, ...). Bucket i counts samples whose bit width is i, i.e.
/// bucket 0 holds the value 0 and bucket i >= 1 holds [2^(i-1), 2^i).
/// The inclusive upper edge reported for bucket i is 2^i - 1; quantiles
/// resolve to the upper edge of the bucket containing them (same math the
/// serve latency percentiles used before they moved here).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  /// Records `times` samples of value v.
  void observe(std::uint64_t v, std::uint64_t times = 1) {
    const std::size_t b =
        std::min<std::size_t>(std::bit_width(v), kBuckets - 1);
    buckets_[b].fetch_add(times, std::memory_order_relaxed);
    sum_.fetch_add(v * times, std::memory_order_relaxed);
  }

  /// Adds every bucket of `other` into this histogram.
  void merge_from(const Histogram& other);

  std::uint64_t count() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Inclusive upper edge of bucket i: 0 for bucket 0, else 2^i - 1.
  static std::uint64_t bucket_upper_edge(std::size_t i) {
    return i == 0 ? 0 : (i >= 64 ? ~0ull : (1ull << i) - 1);
  }

  /// Value at quantile q in [0, 1]: the exclusive upper bound 2^b of the
  /// bucket holding the q-th sample (1.0 for buckets 0 and 1). Returns 0
  /// when empty.
  double quantile(double q) const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
};

/// One rendered sample, for programmatic inspection of a registry.
struct Sample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

/// Owns metrics; hands out stable references. Families (one per name)
/// carry the help text and type used in exposition.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       const Labels& labels = {});

  /// Current value of a counter/gauge series; 0 if absent.
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels = {}) const;
  double gauge_value(const std::string& name,
                     const Labels& labels = {}) const;

  /// Every counter and gauge series (histograms expand to one sample per
  /// non-empty bucket plus _sum/_count), sorted by (name, labels).
  std::vector<Sample> samples() const;

  /// Prometheus text exposition: # HELP / # TYPE per family, one line per
  /// series, families sorted by name, terminated by "# EOF\n" (the
  /// OpenMetrics end marker — it doubles as the end-of-response sentinel
  /// for the serve `metrics` wire verb).
  std::string prometheus_text() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::map<Labels, Series> series;
  };

  Family& family_locked(const std::string& name, const std::string& help,
                        Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// Renders {a="b",c="d"} for exposition lines; empty string for no labels.
std::string format_labels(const Labels& labels);

}  // namespace mpte::obs
