// Transport cost of the multi-process backend vs the in-process simulator.
//
// One benchmark round is a representative comms-heavy step: every machine
// rewrites one store blob and sends a fixed payload to every peer
// (all-to-all), so a round moves M*M*payload message bytes plus M store
// deltas. The inproc rows price the simulator's refcounted delivery; the
// proc rows add what a real process boundary costs — kStep shipping,
// serialization through the shared-memory rings (docs/ipc-transport.md),
// and the result barrier — at M in {4, 8, 16}. Both substrates run the
// same registered named step so the comparison isolates the substrate,
// not the step body.
//
// Artifacts, following the BENCH_simd convention:
//   BENCH_ipc.json          rows of {backend, machines, round_ms,
//                           rounds_per_s, mb_per_s}
//   BENCH_ipc.metrics.prom  the same numbers as Prometheus gauges
#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/serialize.hpp"
#include "common/timer.hpp"
#include "mpc/cluster.hpp"
#include "mpc/step.hpp"
#include "obs/metrics.hpp"

namespace mpte::bench {
namespace {

constexpr std::size_t kPayloadBytes = 4096;

/// The all-to-all round as a registered step: proc workers resolve it by
/// name from their own registry; the inproc row runs the same factory
/// product in this process.
mpc::Step make_all_to_all(mpc::StepParams params) {
  Deserializer d(params);
  const auto payload_bytes = d.read<std::uint64_t>();
  const auto round = d.read<std::uint64_t>();
  return [payload_bytes, round](mpc::MachineContext& ctx) {
    ctx.store().set_blob("state",
                         std::vector<std::uint8_t>(
                             payload_bytes, static_cast<std::uint8_t>(round)));
    const std::vector<std::uint8_t> payload(payload_bytes, 0x5a);
    for (mpc::MachineId to = 0; to < ctx.num_machines(); ++to) {
      ctx.send(to, payload, "bench/all-to-all");
    }
  };
}

const mpc::RegisterStep kRegAllToAll{"bench/all-to-all", make_all_to_all};

mpc::StepSpec all_to_all_spec(std::uint64_t round) {
  Serializer s;
  s.write(static_cast<std::uint64_t>(kPayloadBytes));
  s.write(round);
  return mpc::StepSpec("bench/all-to-all", std::move(s));
}

struct IpcRow {
  std::string backend;
  std::size_t machines = 0;
  double round_ms = 0.0;
  double rounds_per_s = 0.0;
  double mb_per_s = 0.0;
};

/// Process-wide accumulator behind the BENCH_ipc artifacts (the
/// SimdBenchRecorder pattern: replace-by-key, rewrite after every sweep).
class IpcBenchRecorder {
 public:
  static IpcBenchRecorder& global() {
    static IpcBenchRecorder recorder;
    return recorder;
  }

  void add(IpcRow row) {
    std::erase_if(rows_, [&row](const IpcRow& r) {
      return r.backend == row.backend && r.machines == row.machines;
    });
    rows_.push_back(std::move(row));
  }

  void write_artifacts() const {
    std::ostringstream json;
    json << "{\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const auto& r = rows_[i];
      json << (i == 0 ? "\n" : ",\n");
      json << "    {\"backend\": \"" << r.backend
           << "\", \"machines\": " << r.machines
           << ", \"round_ms\": " << r.round_ms
           << ", \"rounds_per_s\": " << r.rounds_per_s
           << ", \"mb_per_s\": " << r.mb_per_s << "}";
    }
    json << "\n  ]\n}\n";

    obs::Registry registry;
    for (const auto& r : rows_) {
      const obs::Labels labels = {{"backend", r.backend},
                                  {"machines", std::to_string(r.machines)}};
      registry
          .gauge("mpte_ipc_bench_round_ms",
                 "Wall-clock milliseconds per all-to-all round", labels)
          .set(r.round_ms);
      registry
          .gauge("mpte_ipc_bench_rounds_per_s",
                 "All-to-all rounds committed per second", labels)
          .set(r.rounds_per_s);
      registry
          .gauge("mpte_ipc_bench_mb_per_s",
                 "Message megabytes delivered per second", labels)
          .set(r.mb_per_s);
    }
    const std::string prom = registry.prometheus_text();
    const auto bytes = [](const std::string& text) {
      return std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    };
    (void)write_file_atomic("BENCH_ipc.json", bytes(json.str()));
    (void)write_file_atomic("BENCH_ipc.metrics.prom", bytes(prom));
  }

 private:
  std::vector<IpcRow> rows_;
};

/// The benchmark's substrate axis.
struct Substrate {
  const char* name;
  mpc::Backend backend;
};

constexpr Substrate kSubstrates[] = {
    {"inproc", mpc::Backend::kInProcess},
    {"proc", mpc::Backend::kMultiProcess},
};

void BM_AllToAllRound(benchmark::State& state) {
  const auto machines = static_cast<std::size_t>(state.range(0));
  const Substrate& substrate = kSubstrates[state.range(1)];

  mpc::ClusterConfig config;
  config.num_machines = machines;
  config.local_memory_bytes = 1 << 22;
  config.backend = substrate.backend;
  mpc::Cluster cluster(config);

  const double bytes_per_round =
      static_cast<double>(machines * machines * kPayloadBytes);

  double total_ms = 0.0;
  std::uint64_t round = 0;
  for (auto _ : state) {
    const Timer timer;
    cluster.run_round(all_to_all_spec(round), "bench");
    total_ms += timer.milliseconds();
    ++round;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      bytes_per_round * static_cast<double>(state.iterations())));

  IpcRow row;
  row.backend = substrate.name;
  row.machines = machines;
  row.round_ms =
      state.iterations() > 0
          ? total_ms / static_cast<double>(state.iterations())
          : 0.0;
  row.rounds_per_s = row.round_ms > 0.0 ? 1000.0 / row.round_ms : 0.0;
  row.mb_per_s = row.round_ms > 0.0
                     ? bytes_per_round / (row.round_ms * 1e3)
                     : 0.0;
  state.counters["round_ms"] = row.round_ms;
  state.counters["rounds_per_s"] = row.rounds_per_s;
  state.counters["mb_per_s"] = row.mb_per_s;
  IpcBenchRecorder::global().add(std::move(row));
  IpcBenchRecorder::global().write_artifacts();
}

BENCHMARK(BM_AllToAllRound)
    ->ArgNames({"machines", "substrate"})
    ->ArgsProduct({{4, 8, 16}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mpte::bench
