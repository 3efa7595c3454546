// Serving-tier throughput: one request per call vs windows of requests.
//
// Both runs send the same deterministic query mix (70% dist / 20% knn /
// 10% range, half of it on a hot set of 64 points) from 8 client threads
// to one static service:
//
//   single   every client submits one request and takes its reply
//            (submit(...).get()) before the next;
//   window   every client submits windows of 64 (submit_batch).
//
// Reads are evaluated on the submitting client's thread in both runs, so
// the gap is what a window saves per request: one admission lock, one
// stats fold and one epoch snapshot per window instead of per request.
// The batcher's max_batch/max_wait govern updates only and do not enter.
//
// Every 16th answer is checked against direct evaluate() on the ensemble
// after the timed run; `mismatches` (failed replies plus sampled answers
// that differ) must be 0 — windows change scheduling, never values.
//
// Counters: single_qps, window_qps, mismatches, hw_threads, spans (the
// window run's serve/batch spans: one per window).
// The window run is traced (mpte::obs) and leaves
// bench_serve_throughput.trace.json / .metrics.prom next to the binary.
#include <benchmark/benchmark.h>

#include <cstdint>
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
#include "serve/wire.hpp"

namespace mpte::bench {
namespace {

constexpr std::size_t kClients = 8;
constexpr std::size_t kQueriesPerClient = 4000;
constexpr std::size_t kWindow = 64;

/// Deterministic query stream: query i of client c depends only on
/// (c, i), so both runs and the verification pass see the exact same
/// requests.
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
  std::uint64_t mismatches = 0;
};

/// Runs the full query mix through `service` from kClients threads, in
/// windows of `window` requests (1 = submit(...).get() per request). Every
/// reply must be ok; every 16th is kept and compared with direct
/// evaluate() after the timer stops, so the check is not in the timed run.
RunResult run_clients(serve::EmbeddingService& service, std::size_t window) {
  const std::size_t num_points = service.num_points();
  // kept[c][s]: client c's reply to its request 16 * s.
  std::vector<std::vector<Result<serve::Response>>> kept(kClients);
  std::vector<std::uint64_t> failed(kClients, 0);
  Timer timer;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<serve::Request> requests;
      requests.reserve(window);
      std::vector<serve::Reply> replies;
      for (std::size_t i = 0; i < kQueriesPerClient; i += window) {
        const std::size_t end = std::min(i + window, kQueriesPerClient);
        requests.clear();
        for (std::size_t j = i; j < end; ++j) {
          requests.push_back(make_request(c, j, num_points));
        }
        if (window == 1) {
          replies.clear();
          replies.push_back(service.submit(requests.front()));
        } else {
          replies = service.submit_batch(requests);
        }
        for (std::size_t j = i; j < end; ++j) {
          Result<serve::Response> reply = replies[j - i].get();
          if (!reply.ok()) ++failed[c];
          if (j % 16 == 0) kept[c].push_back(std::move(reply));
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
  for (std::size_t c = 0; c < kClients; ++c) {
    result.mismatches += failed[c];
    for (std::size_t s = 0; s < kept[c].size(); ++s) {
      const auto direct =
          service.evaluate(make_request(c, 16 * s, num_points));
      if (serve::format_response(kept[c][s]) !=
          serve::format_response(direct)) {
        ++result.mismatches;
      }
    }
  }
  return result;
}

void BM_ServeThroughput(benchmark::State& state) {
  const PointSet points = generate_uniform_cube(2000, 8, 20.0, 41);
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = 71;
  auto ensemble = EmbeddingEnsemble::build(points, options, 4);
  if (!ensemble.ok()) {
    state.SkipWithError(ensemble.status().to_string().c_str());
    return;
  }
  serve::EmbeddingService service(std::move(ensemble).value());
  for (auto _ : state) {
    const RunResult single = run_clients(service, 1);
    // Trace only the window run: each window records one "serve/batch"
    // span, so the exported timeline shows window sizes and pacing.
    obs::Tracer::global().enable();
    const RunResult windowed = run_clients(service, kWindow);
    obs::Tracer::global().disable();

    // Loadable artifacts next to the bench binary:
    //   bench_serve_throughput.trace.json   (Chrome-trace; open in Perfetto)
    //   bench_serve_throughput.metrics.prom (Prometheus text)
    obs::Registry registry;
    service.export_metrics(&registry);
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
      return;
    }
    state.counters["single_qps"] = single.qps;
    state.counters["window_qps"] = windowed.qps;
    state.counters["mismatches"] =
        static_cast<double>(single.mismatches + windowed.mismatches);
    state.counters["hw_threads"] =
        static_cast<double>(par::hardware_threads());
    state.counters["spans"] =
        static_cast<double>(obs::Tracer::global().size());
  }
}
BENCHMARK(BM_ServeThroughput)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mpte::bench
