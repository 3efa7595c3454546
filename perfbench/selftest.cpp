// Self-test of the benchmark's own code: the statistics, the span
// breakdown, the metric names against BENCHMARK.json, and a reduced-size
// smoke of every workload in both modes.
//
//   perfbench_selftest [path/to/BENCHMARK.json]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
    }                                                                 \
  } while (0)

bool near(std::optional<double> got, double want) {
  return got.has_value() && std::abs(*got - want) < 1e-9;
}

void test_median() {
  CHECK(!perfbench::median({}).has_value());
  CHECK(near(perfbench::median({7}), 7));
  CHECK(near(perfbench::median({3, 1, 2}), 2));
  CHECK(near(perfbench::median({4, 1, 3, 2}), 2.5));
  CHECK(near(perfbench::median({5, 5, 1, 9}), 5));
  // Flagged samples are left out, unless all of them are flagged.
  CHECK(near(perfbench::median_unflagged({1, 2, 100}, {false, false, true}), 1.5));
  CHECK(near(perfbench::median_unflagged({1, 2, 100}, {true, true, true}), 2));
  CHECK(!perfbench::median_unflagged({}, {}).has_value());
}

void test_percentile() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  // Nearest rank: p50 of 1..100 is 50, p90 is 90 with ten samples above.
  CHECK(near(perfbench::percentile(hundred, 50), 50));
  CHECK(near(perfbench::percentile(hundred, 90), 90));
  // p95 would rest on five samples beyond it, p99 on one: refused.
  CHECK(!perfbench::percentile(hundred, 95).has_value());
  CHECK(!perfbench::percentile(hundred, 99).has_value());
  std::vector<std::uint32_t> thousand;
  for (std::uint32_t i = 1; i <= 1000; ++i) thousand.push_back(1001 - i);
  CHECK(near(perfbench::percentile(thousand, 99), 990));
  CHECK(!perfbench::percentile(thousand, 99.5).has_value());
  // Fewer than eleven samples support no percentile at all.
  CHECK(!perfbench::percentile(std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1)
             .has_value());
  CHECK(near(perfbench::percentile(std::vector<double>(11, 4.0), 1), 4));
  CHECK(!perfbench::percentile(hundred, 0).has_value());
  CHECK(!perfbench::percentile(hundred, 100).has_value());
}

void test_spans() {
  using perfbench::SpanRecord;
  // Thread 0: root [0,100) with children [10,30) and [40,70); [15,25) is a
  // grandchild. Thread 1 runs [0,90) with child [5,85) concurrently; that
  // child lies inside thread 0's root at depth 1 but is not part of it. A
  // second root [200,240) has child [200,230).
  const std::vector<SpanRecord> spans = {
      {"emb/child", 0, 1, 10, 20},   {"emb/grandchild", 0, 2, 15, 10},
      {"emb/child", 0, 1, 40, 30},   {"emb/mpc_embed", 0, 0, 0, 100},
      {"mpc/round", 1, 0, 0, 90},    {"mpc/round", 1, 1, 5, 80},
      {"emb/mpc_embed", 0, 0, 200, 40}, {"emb/child", 0, 1, 200, 30},
  };
  CHECK(perfbench::direct_children_us(spans, 3) == 50);
  CHECK(perfbench::self_time_us(spans, 3) == 50);
  CHECK(perfbench::self_time_us(spans, 0) == 10);  // child minus grandchild
  CHECK(perfbench::self_time_us(spans, 4) == 10);
  // Pooled over both roots: 1 - (50 + 30) / (100 + 40).
  CHECK(near(perfbench::unattributed_frac(spans, "emb/mpc_embed"),
             1.0 - 80.0 / 140.0));
  CHECK(!perfbench::unattributed_frac(spans, "emb/absent").has_value());
  const auto total = perfbench::span_total(spans, "emb/child");
  CHECK(total.count == 3 && std::abs(total.seconds - 80e-6) < 1e-12);
}

void test_names(const std::string& manifest_path) {
  std::vector<std::string> names = perfbench::workload_names();
  for (const auto& m : perfbench::end_to_end_metrics()) names.push_back(m.name);
  for (const auto& m : perfbench::per_layer_metrics()) names.push_back(m.name);
  for (const std::string& name : names) {
    if (!perfbench::valid_name(name)) {
      std::fprintf(stderr, "invalid name '%s'\n", name.c_str());
      CHECK(perfbench::valid_name(name));
    }
  }
  CHECK(!perfbench::valid_name("_leading"));
  CHECK(!perfbench::valid_name("has space"));
  CHECK(!perfbench::valid_name(std::string(65, 'a')));

  // BENCHMARK.json names exactly the workloads and metrics the code emits.
  std::ifstream in(manifest_path);
  CHECK(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const std::string manifest = text.str();
  std::size_t declared = 0;
  for (std::size_t at = manifest.find("\"name\""); at != std::string::npos;
       at = manifest.find("\"name\"", at + 1)) {
    ++declared;
  }
  CHECK(declared == names.size());
  for (const std::string& name : names) {
    if (manifest.find("\"name\": \"" + name + "\"") == std::string::npos) {
      std::fprintf(stderr, "'%s' is not in %s\n", name.c_str(),
                   manifest_path.c_str());
      ++failures;
    }
  }
}

void test_smoke() {
  for (const std::string& workload : perfbench::workload_names()) {
    for (const bool trace : {false, true}) {
      perfbench::RunOptions options;
      options.workload = workload;
      options.seed = 7;
      options.seconds = 0.3;
      options.trace = trace;
      options.scale = 0.05;
      const perfbench::RunReport report = perfbench::run_workload(options);
      const auto& table = trace ? perfbench::per_layer_metrics()
                                : perfbench::end_to_end_metrics();
      std::fprintf(stderr, "smoke %s trace=%d: attempted=%llu failed=%llu\n",
                   workload.c_str(), trace ? 1 : 0,
                   static_cast<unsigned long long>(report.attempted),
                   static_cast<unsigned long long>(report.failed));
      for (const std::string& note : report.notes) {
        std::fprintf(stderr, "  %s\n", note.c_str());
      }
      CHECK(report.correct());
      CHECK(report.metrics.size() == table.size());
      for (const perfbench::Metric& m : report.metrics) {
        // End-to-end values are measured and never zero; per-layer ones are
        // measured (>= 0, bar the overhead ratio) or marked absent.
        if (trace) {
          CHECK(m.value >= 0 || m.value == perfbench::kAbsent ||
                m.name == "obs.trace_overhead_frac");
        } else if (!(m.value > 0)) {
          std::fprintf(stderr, "  %s = %g\n", m.name.c_str(), m.value);
          ++failures;
        }
        if (m.name == "obs.spans_overwritten") CHECK(m.value == 0);
        if (m.name == "mpc.violations") CHECK(m.value <= 0);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  test_median();
  test_percentile();
  test_spans();
  test_names(argc > 1 ? argv[1] : PERFBENCH_MANIFEST);
  test_smoke();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
