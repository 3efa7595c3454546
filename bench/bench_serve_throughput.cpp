// Serving-tier throughput: the batched EmbeddingService vs a
// one-at-a-time baseline.
//
// Both configurations run the same deterministic query mix (70% dist /
// 20% knn / 10% range, half of it on a hot set of 64 points) from 8
// client threads against the same ensemble:
//
//   baseline   max_batch=1, max_wait=0; every client submits one request
//              and blocks on the future before the next — one
//              queue/condvar handoff and one pool dispatch per query.
//   batched    max_batch=128, max_wait=200us; every client pipelines
//              windows of 64 via submit_batch, then drains.
//
// Answers from both runs are checked against direct evaluate() on the
// ensemble; `mismatches` must be 0 (batching changes scheduling, never
// values). On a multi-core host batched_qps should be >= 3x
// baseline_qps; on one hardware thread the gap measures only the saved
// handoffs, so the ratio is reported, not asserted.
//
// Counters: baseline_qps, batched_qps, speedup, p50_ms, p99_ms (batched
// run, submit-to-completion), mismatches, hw_threads, spans.
// The batched run is traced (mpte::obs) and leaves
// bench_serve_throughput.trace.json / .metrics.prom next to the binary.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/ensemble.hpp"
#include "geometry/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"

namespace mpte::bench {
namespace {

constexpr std::size_t kClients = 8;
constexpr std::size_t kQueriesPerClient = 4000;
constexpr std::size_t kWindow = 64;

/// Deterministic query stream: query i of client c depends only on
/// (c, i), so both configurations and the verification pass see the
/// exact same requests.
serve::Request make_request(std::size_t client, std::size_t i,
                            std::size_t num_points) {
  const std::uint64_t h = mix64(hash_combine(client + 1, i));
  // A hot set of 64 points gets half the traffic; the other half is
  // uniform (cold).
  const bool hot = (h & 1) != 0;
  const std::size_t p = static_cast<std::size_t>(
      (h >> 1) % (hot ? std::min<std::size_t>(64, num_points)
                      : num_points));
  const std::size_t q = static_cast<std::size_t>(
      mix64(h) % (hot ? std::min<std::size_t>(64, num_points)
                      : num_points));
  const std::uint64_t kind = (h >> 32) % 10;
  if (kind < 7) {
    return serve::Request::Distance(p, q,
                                    (h & 2) ? serve::Combiner::kExpected
                                            : serve::Combiner::kMin);
  }
  if (kind < 9) return serve::Request::Knn(p, 1 + (h >> 8) % 8);
  return serve::Request::RangeCount(p, 1.0 + static_cast<double>(q % 20));
}

struct RunResult {
  double qps = 0.0;
  serve::ServiceStats stats;
  std::uint64_t errors = 0;
};

/// Runs the full query mix through `service` from kClients threads.
/// `pipelined` selects submit_batch windows vs submit+get per query.
RunResult run_clients(serve::EmbeddingService& service, bool pipelined) {
  std::atomic<std::uint64_t> errors{0};
  const std::size_t num_points = service.num_points();
  Timer timer;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      if (pipelined) {
        std::vector<serve::Request> window;
        window.reserve(kWindow);
        for (std::size_t i = 0; i < kQueriesPerClient; i += kWindow) {
          window.clear();
          const std::size_t end =
              std::min(i + kWindow, kQueriesPerClient);
          for (std::size_t j = i; j < end; ++j) {
            window.push_back(make_request(c, j, num_points));
          }
          auto futures = service.submit_batch(window);
          for (auto& future : futures) {
            if (!future.get().ok()) ++errors;
          }
        }
      } else {
        for (std::size_t i = 0; i < kQueriesPerClient; ++i) {
          auto future = service.submit(make_request(c, i, num_points));
          if (!future.get().ok()) ++errors;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  const double seconds = timer.milliseconds() / 1000.0;
  RunResult result;
  result.qps = seconds > 0.0
                   ? static_cast<double>(kClients * kQueriesPerClient) /
                         seconds
                   : 0.0;
  result.stats = service.stats();
  result.errors = errors.load();
  return result;
}

/// Re-derives every answer through evaluate() (no queue) and counts
/// disagreements with the service path. Both go through the same
/// LcaIndex code, so the comparison is exact equality.
std::uint64_t verify_answers(serve::EmbeddingService& service) {
  std::uint64_t mismatches = 0;
  const std::size_t num_points = service.num_points();
  for (std::size_t c = 0; c < kClients; ++c) {
    // Sample every 16th query; the stream is deterministic so this
    // covers all kinds and both hot/cold points.
    for (std::size_t i = 0; i < kQueriesPerClient; i += 16) {
      const serve::Request request = make_request(c, i, num_points);
      const auto direct = service.evaluate(request);
      auto served = service.submit(request).get();
      if (!direct.ok() || !served.ok()) {
        ++mismatches;
        continue;
      }
      if (direct->value != served->value ||
          direct->neighbors.size() != served->neighbors.size()) {
        ++mismatches;
        continue;
      }
      for (std::size_t n = 0; n < direct->neighbors.size(); ++n) {
        if (direct->neighbors[n].point != served->neighbors[n].point ||
            direct->neighbors[n].distance !=
                served->neighbors[n].distance) {
          ++mismatches;
          break;
        }
      }
    }
  }
  return mismatches;
}

serve::EmbeddingService make_service(const PointSet& points,
                                     bool batched) {
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = 71;
  auto ensemble = EmbeddingEnsemble::build(points, options, 4);
  serve::ServiceOptions service_options;
  if (batched) {
    service_options.max_batch = 128;
    service_options.max_wait = std::chrono::microseconds(200);
  } else {
    service_options.max_batch = 1;
    service_options.max_wait = std::chrono::microseconds(0);
  }
  service_options.max_queue = 1 << 16;
  return serve::EmbeddingService(std::move(ensemble).value(),
                                 service_options);
}

void BM_ServeThroughput(benchmark::State& state) {
  const PointSet points = generate_uniform_cube(2000, 8, 20.0, 41);
  for (auto _ : state) {
    double baseline_qps = 0.0;
    {
      auto baseline = make_service(points, /*batched=*/false);
      baseline_qps = run_clients(baseline, /*pipelined=*/false).qps;
      baseline.stop();
    }
    auto batched = make_service(points, /*batched=*/true);
    // Trace only the batched run: each run_batch drain records one
    // "serve/batch" span, so the exported timeline shows batch sizes and
    // pacing under the pipelined client load.
    obs::Tracer::global().enable();
    const RunResult run = run_clients(batched, /*pipelined=*/true);
    obs::Tracer::global().disable();
    const std::uint64_t mismatches = verify_answers(batched) + run.errors;

    // Loadable artifacts next to the bench binary:
    //   bench_serve_throughput.trace.json   (Chrome-trace; open in Perfetto)
    //   bench_serve_throughput.metrics.prom (Prometheus text)
    obs::Registry registry;
    batched.export_metrics(&registry);
    const std::string prom = registry.prometheus_text();
    const std::string json = obs::Tracer::global().chrome_trace_json();
    const auto bytes = [](const std::string& text) {
      return std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    };
    if (!write_file_atomic("bench_serve_throughput.trace.json", bytes(json))
             .ok() ||
        !write_file_atomic("bench_serve_throughput.metrics.prom",
                           bytes(prom))
             .ok()) {
      state.SkipWithError("failed to write obs artifacts");
      return;  // ~EmbeddingService stops the batcher
    }
    state.counters["spans"] =
        static_cast<double>(obs::Tracer::global().size());

    batched.stop();
    state.counters["baseline_qps"] = baseline_qps;
    state.counters["batched_qps"] = run.qps;
    state.counters["speedup"] =
        baseline_qps > 0.0 ? run.qps / baseline_qps : 0.0;
    state.counters["p50_ms"] = run.stats.p50_ms;
    state.counters["p99_ms"] = run.stats.p99_ms;
    state.counters["mismatches"] = static_cast<double>(mismatches);
    state.counters["hw_threads"] =
        static_cast<double>(par::hardware_threads());
  }
}
BENCHMARK(BM_ServeThroughput)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mpte::bench
