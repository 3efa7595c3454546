// mpte::ckpt — snapshots, deterministic crash injection, crash recovery.
//
// The load-bearing test is the crash sweep: inject a crash at EVERY round
// of the golden-seed mpc_embed configuration (golden.hpp),
// recover from the newest checkpoint, and require the recovered embedding
// to match the golden fingerprint byte for byte, and its rounds_used the
// fault-free count — at 1 and 8 cluster threads. test_mpc_apps sweeps the
// three applications the same way.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <fstream>
#include <vector>

#include "ckpt/fault.hpp"
#include "ckpt/manager.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/snapshot.hpp"
#include "common/checksum.hpp"
#include "common/serialize.hpp"
#include "golden.hpp"
#include "mpc/primitives.hpp"
#include "obs/metrics.hpp"

namespace mpte::ckpt {
namespace {

namespace fs = std::filesystem;

using mpc::CheckpointPolicy;
using mpc::Cluster;
using mpc::ClusterConfig;
using mpc::KV;
using mpc::MachineContext;
using mpc::RankCrashed;

/// Fresh per-test scratch directory (removed up front, not after, so a
/// failing test leaves its snapshots around for inspection).
fs::path scratch_dir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("mpte_ckpt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

using golden::fingerprint;
using golden::golden_config;
using golden::golden_options;
using golden::golden_points;
using golden::kGoldenHash;

/// Runs a few communication rounds so the cluster holds nontrivial state:
/// scattered vectors, a shuffle, and a pending driver note.
void run_sample_workload(Cluster& cluster) {
  std::vector<KV> records;
  for (std::uint64_t i = 0; i < 64; ++i) records.push_back(KV{i % 8, i});
  mpc::scatter_vector(cluster, "in", records);
  mpc::reduce_kv_sum(cluster, "in", "sums");
  mpc::sum_u64(cluster, "missing", "total", 0);
  cluster.set_driver_note(mpc::Buffer(std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Snapshot, RoundTripRestoresEveryRankByteIdentically) {
  Cluster original(ClusterConfig{4, 1 << 20, true});
  run_sample_workload(original);

  const Snapshot snapshot = Snapshot::capture(original);
  EXPECT_EQ(snapshot.rounds, original.stats().rounds());

  const auto bytes = snapshot.to_bytes();
  const auto decoded = Snapshot::from_bytes(bytes, "test");
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->rounds, snapshot.rounds);

  Cluster restored(ClusterConfig{4, 1 << 20, true});
  restored.resume_from(std::move(const_cast<Snapshot&>(*decoded).state));
  ASSERT_EQ(restored.stats().rounds(), original.stats().rounds());
  for (mpc::MachineId id = 0; id < original.num_machines(); ++id) {
    const auto want = original.store(id).entries();
    const auto got = restored.store(id).entries();
    ASSERT_EQ(want.size(), got.size()) << "rank " << id;
    for (std::size_t e = 0; e < want.size(); ++e) {
      EXPECT_EQ(want[e].first, got[e].first) << "rank " << id;
      const auto a = want[e].second.span();
      const auto b = got[e].second.span();
      ASSERT_EQ(a.size(), b.size()) << "rank " << id << " " << want[e].first;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
          << "rank " << id << " " << want[e].first;
    }
  }
  const auto note = restored.driver_note().span();
  ASSERT_EQ(note.size(), 3u);
  EXPECT_EQ(note[1], 2u);
}

TEST(Snapshot, FileRoundTripAndCorruptionRejection) {
  const fs::path dir = scratch_dir("file_roundtrip");
  Cluster cluster(ClusterConfig{3, 1 << 20, true});
  run_sample_workload(cluster);

  const Snapshot snapshot = Snapshot::capture(cluster);
  const std::string path = (dir / "snap.mpck").string();
  ASSERT_TRUE(write_file_atomic(path, snapshot.to_bytes()).ok());
  const auto loaded = Snapshot::read(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->rounds, snapshot.rounds);

  // A flipped payload byte must be rejected with a Status, not decoded.
  auto bytes = snapshot.to_bytes();
  bytes[bytes.size() / 2] ^= 0x40;
  const auto corrupt = Snapshot::from_bytes(bytes, "corrupt");
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument);

  // Truncation likewise.
  auto truncated = snapshot.to_bytes();
  truncated.resize(truncated.size() / 2);
  const auto trunc = Snapshot::from_bytes(truncated, "truncated");
  ASSERT_FALSE(trunc.ok());
  EXPECT_EQ(trunc.status().code(), StatusCode::kInvalidArgument);
}

TEST(Snapshot, CursorSlotWrittenByEarlierBuildsIsSkipped) {
  // Earlier builds wrote a fault-schedule cursor (one byte per event) in
  // the slot before the driver note; a snapshot carrying one must still
  // decode and restore, so their checkpoint directories still resume.
  Cluster original(ClusterConfig{4, 1 << 20, true});
  run_sample_workload(original);
  const Snapshot snapshot = Snapshot::capture(original);
  auto payload = unwrap_checksummed(snapshot.to_bytes(), "test");
  ASSERT_TRUE(payload.ok()) << payload.status().to_string();
  // The payload ends with the empty cursor slot (a zero length) and the
  // length-prefixed driver note.
  const std::size_t note_bytes =
      sizeof(std::uint64_t) + original.driver_note().size();
  const std::size_t slot = payload->size() - note_bytes - sizeof(std::uint64_t);
  Serializer cursor;
  cursor.write_vector(std::vector<std::uint8_t>{0, 1, 0});
  std::vector<std::uint8_t> legacy(payload->begin(), payload->begin() + slot);
  legacy.insert(legacy.end(), cursor.bytes().begin(), cursor.bytes().end());
  legacy.insert(legacy.end(), payload->begin() + slot + sizeof(std::uint64_t),
                payload->end());

  auto decoded = Snapshot::from_bytes(wrap_checksummed(legacy), "legacy");
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->rounds, snapshot.rounds);
  Cluster restored(ClusterConfig{4, 1 << 20, true});
  restored.resume_from(std::move(decoded->state));
  EXPECT_EQ(restored.stats().rounds(), original.stats().rounds());
  const auto note = restored.driver_note().span();
  ASSERT_EQ(note.size(), 3u);
  EXPECT_EQ(note[2], 3u);
  for (mpc::MachineId id = 0; id < original.num_machines(); ++id) {
    EXPECT_EQ(restored.store(id).entries().size(),
              original.store(id).entries().size());
  }
}

TEST(Snapshot, HostileCountsBehindAValidEnvelopeAreAStatus) {
  // A checksum-valid payload whose counts are hostile: a machine count of
  // 2^61 + 1, then a blob key and a blob length of 2^64 - 1 (which wrap
  // the cursor). Each must come back as kInvalidArgument.
  constexpr std::uint64_t kHuge = (std::uint64_t{1} << 61) + 1;
  constexpr std::uint64_t kWraps = ~std::uint64_t{0};
  const auto payload = [](std::uint64_t machines, std::uint64_t key_length,
                          std::uint64_t blob_length) {
    Serializer s;
    s.write(Snapshot::kMagic);
    s.write(Snapshot::kVersion);
    s.write<std::uint64_t>(0);  // rounds
    s.write(machines);
    s.write<std::uint64_t>(1);  // blobs on machine 0
    s.write(key_length);
    s.write<std::uint8_t>('k');
    s.write(blob_length);
    for (int i = 0; i < 5; ++i) s.write<std::uint64_t>(0);
    return wrap_checksummed(s.bytes());
  };
  for (const auto& bytes :
       {payload(kHuge, 1, 0), payload(1, kWraps, 0), payload(1, 1, kWraps)}) {
    const auto decoded = Snapshot::from_bytes(bytes, "hostile");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Coordinator, CorruptNewestSnapshotFallsBackToOlderOne) {
  const fs::path dir = scratch_dir("fallback");
  CheckpointPolicy policy;
  policy.directory = dir.string();

  Cluster cluster(ClusterConfig{3, 1 << 20, true});
  Coordinator coordinator(policy);
  cluster.set_hooks(&coordinator);
  run_sample_workload(cluster);
  // The newest two snapshots are kept.
  const auto paths = Coordinator::snapshot_paths(dir.string());
  ASSERT_EQ(paths.size(), 2u);

  // Corrupt the newest file; load_latest must fall back to the previous.
  {
    std::fstream f(paths.back(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(24);
    const char byte = static_cast<char>(f.get());
    f.seekp(24);
    f.put(static_cast<char>(byte ^ 0x7f));
  }
  const auto latest = coordinator.load_latest();
  ASSERT_TRUE(latest.ok()) << latest.status().to_string();
  EXPECT_LT(latest->rounds, cluster.stats().rounds());

  // With every file corrupted, restore_latest degrades to a full restart.
  for (const auto& path : Coordinator::snapshot_paths(dir.string())) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  coordinator.restore_latest(cluster);
  EXPECT_EQ(cluster.stats().rounds(), 0u);
  EXPECT_EQ(cluster.stats().resilience().recoveries, 1u);
}

/// Fault-free golden run: returns the fingerprint (asserting it matches
/// the pinned hash) and the total committed round count.
std::pair<std::uint64_t, std::size_t> golden_run(std::size_t threads) {
  Cluster cluster(golden_config(threads));
  const auto result = golden::golden_embed(cluster);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return {fingerprint(*result), cluster.stats().rounds()};
}

TEST(Recovery, CrashAtEveryRoundRecoversGoldenFingerprint) {
  const PointSet points = golden_points();
  for (const std::size_t threads : {1u, 8u}) {
    const auto [golden, total_rounds] = golden_run(threads);
    ASSERT_EQ(golden, kGoldenHash) << "threads=" << threads;
    ASSERT_GT(total_rounds, 0u);

    for (std::size_t crash_round = 0; crash_round < total_rounds;
         ++crash_round) {
      const fs::path dir = scratch_dir(
          "sweep_t" + std::to_string(threads) + "_r" +
          std::to_string(crash_round));
      ClusterConfig config = golden_config(threads);
      config.checkpoint.directory = dir.string();
      Cluster cluster(config);

      FaultPlan plan;
      plan.add_crash(crash_round,
                     crash_round % config.num_machines);
      Coordinator coordinator = Coordinator::for_cluster(cluster,
                                                         std::move(plan));
      cluster.set_hooks(&coordinator);

      const auto result = run_with_recovery(cluster, coordinator, [&] {
        return mpc_embed(cluster, points, golden_options());
      });
      ASSERT_TRUE(result.ok())
          << "threads=" << threads << " crash_round=" << crash_round << ": "
          << result.status().to_string();
      EXPECT_EQ(fingerprint(*result), kGoldenHash)
          << "threads=" << threads << " crash_round=" << crash_round;
      EXPECT_EQ(result->rounds_used, total_rounds)
          << "threads=" << threads << " crash_round=" << crash_round;

      const auto& resilience = cluster.stats().resilience();
      EXPECT_EQ(resilience.crashes_injected, 1u);
      EXPECT_EQ(resilience.recoveries, 1u);
      // A crash at round r restores the checkpoint of round r-1: exactly
      // r rounds are fast-forwarded.
      EXPECT_EQ(resilience.rounds_replayed, crash_round);
      EXPECT_TRUE(coordinator.last_write_status().ok());
      fs::remove_all(dir);
    }
  }
}

TEST(Recovery, CrashAtEveryRoundRecoversFjltDerivedDelta) {
  // The FJLT output stays on the machines and Delta is derived from it;
  // the pinned attempt 2 follows two coverage failures. A resumed run must
  // take Delta and the attempt from the driver note, and the cell from
  // rank 0's store, so every reported field matches the fault-free run.
  const PointSet points = golden::fjlt_points();
  for (const std::size_t threads : {1u, 8u}) {
    Cluster reference(golden_config(threads));
    const auto clean =
        mpc_embed(reference, points, golden::fjlt_options());
    ASSERT_TRUE(clean.ok()) << clean.status().to_string();
    ASSERT_EQ(fingerprint(*clean), golden::kFjltMpcHash);
    const std::size_t total_rounds = reference.stats().rounds();

    for (std::size_t crash_round = 0; crash_round < total_rounds;
         ++crash_round) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " crash_round=" + std::to_string(crash_round));
      const fs::path dir = scratch_dir(
          "fjlt_t" + std::to_string(threads) + "_r" +
          std::to_string(crash_round));
      ClusterConfig config = golden_config(threads);
      config.checkpoint.directory = dir.string();
      Cluster cluster(config);
      FaultPlan plan;
      plan.add_crash(crash_round, crash_round % config.num_machines);
      Coordinator coordinator =
          Coordinator::for_cluster(cluster, std::move(plan));
      cluster.set_hooks(&coordinator);

      const auto result = run_with_recovery(cluster, coordinator, [&] {
        return mpc_embed(cluster, points, golden::fjlt_options());
      });
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_EQ(fingerprint(*result), golden::kFjltMpcHash);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result->scale_to_input),
                std::bit_cast<std::uint64_t>(golden::kFjltScaleToInput));
      EXPECT_EQ(result->delta_used, golden::kFjltDelta);
      EXPECT_EQ(result->retries_used, golden::kFjltRetries);
      EXPECT_EQ(result->rounds_used, clean->rounds_used);
      EXPECT_EQ(cluster.stats().resilience().recoveries, 1u);
      EXPECT_EQ(cluster.stats().resilience().rounds_replayed, crash_round);
      fs::remove_all(dir);
    }
  }
}

TEST(Recovery, CrashAtEveryRoundRecoversShardedFjlt) {
  // The sharded and multilevel FJLT modes scatter row blocks and leave
  // their output with each point's block owner; a resumed run must
  // rebuild the same embedding from any round. Tiny budgets force the
  // modes, so limits are off.
  MpcEmbedOptions multilevel;
  multilevel.seed = 5;
  multilevel.fjlt_xi = 0.45;
  MpcEmbedOptions sharded;
  sharded.seed = 3;
  const struct {
    PointSet points;
    MpcEmbedOptions options;
    ClusterConfig config;
  } cases[] = {
      {generate_gaussian_clusters(60, 300, 3, 100.0, 1.0, 11), sharded,
       ClusterConfig{8, 8192, false}},
      {generate_uniform_cube(20, 200, 3.0, 41), multilevel,
       ClusterConfig{32, 400, false}},
  };
  for (const auto& c : cases) {
    Cluster reference(c.config);
    const auto clean = mpc_embed(reference, c.points, c.options);
    ASSERT_TRUE(clean.ok()) << clean.status().to_string();
    ASSERT_TRUE(clean->fjlt_applied);
    for (std::size_t crash_round = 0;
         crash_round < reference.stats().rounds(); ++crash_round) {
      SCOPED_TRACE("machines=" + std::to_string(c.config.num_machines) +
                   " crash_round=" + std::to_string(crash_round));
      const fs::path dir =
          scratch_dir("sharded_m" + std::to_string(c.config.num_machines) +
                      "_r" + std::to_string(crash_round));
      ClusterConfig config = c.config;
      config.checkpoint.directory = dir.string();
      Cluster cluster(config);
      FaultPlan plan;
      plan.add_crash(crash_round, crash_round % config.num_machines);
      Coordinator coordinator =
          Coordinator::for_cluster(cluster, std::move(plan));
      cluster.set_hooks(&coordinator);
      const auto result = run_with_recovery(cluster, coordinator, [&] {
        return mpc_embed(cluster, c.points, c.options);
      });
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_EQ(fingerprint(*result), fingerprint(*clean));
      EXPECT_EQ(result->scale_to_input, clean->scale_to_input);
      EXPECT_EQ(result->delta_used, clean->delta_used);
      EXPECT_EQ(result->rounds_used, clean->rounds_used);
      fs::remove_all(dir);
    }
  }
}

TEST(Recovery, RecoversWithoutAnySnapshots) {
  // Checkpointing off: the one recovery loop resets the cluster and
  // re-runs from round zero.
  const PointSet points = golden_points();
  const auto [golden, total_rounds] = golden_run(1);
  Cluster cluster(golden_config(1));
  FaultPlan plan;
  plan.add_crash(7, 3);
  Coordinator coordinator(CheckpointPolicy{}, std::move(plan));
  cluster.set_hooks(&coordinator);

  const auto result = run_with_recovery(cluster, coordinator, [&] {
    return mpc_embed(cluster, points, golden_options());
  });
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(fingerprint(*result), golden);
  EXPECT_EQ(result->rounds_used, total_rounds);
  EXPECT_EQ(cluster.stats().resilience().recoveries, 1u);
  EXPECT_EQ(cluster.stats().resilience().rounds_replayed, 0u);
}

TEST(Recovery, ExhaustedRestoreBudgetIsAborted) {
  const PointSet points = golden_points();
  Cluster cluster(golden_config(1));
  // More crashes at round 0 than the recovery budget allows.
  FaultPlan plan;
  for (std::size_t i = 0; i < 4; ++i) plan.add_crash(0, 1);
  Coordinator coordinator(CheckpointPolicy{}, std::move(plan));
  cluster.set_hooks(&coordinator);

  const auto result = run_with_recovery(
      cluster, coordinator,
      [&] { return mpc_embed(cluster, points, golden_options()); },
      /*max_recoveries=*/2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
}

TEST(RoundStats, ResilienceCountersSurviveRollbackAndPrintInSummary) {
  const fs::path dir = scratch_dir("summary");
  ClusterConfig config{4, 1 << 20, true};
  config.checkpoint.directory = dir.string();
  Cluster cluster(config);
  Coordinator coordinator = Coordinator::for_cluster(cluster);
  cluster.set_hooks(&coordinator);
  run_sample_workload(cluster);

  coordinator.restore_latest(cluster);  // rollback path
  const auto& resilience = cluster.stats().resilience();
  EXPECT_GT(resilience.checkpoints_written, 0u);
  EXPECT_EQ(resilience.recoveries, 1u);
  const std::string summary = cluster.stats().summary();
  EXPECT_NE(summary.find("ckpt:"), std::string::npos);
  EXPECT_NE(summary.find("recoveries=1"), std::string::npos);
}

TEST(RoundStats, ExportsNoDropOrDuplicateSeries) {
  // A crash is the only injected fault: no message drop or duplicate
  // series is exported.
  Cluster cluster(ClusterConfig{4, 1 << 20, true});
  run_sample_workload(cluster);
  obs::Registry registry;
  cluster.stats().export_metrics(&registry);
  ASSERT_FALSE(registry.samples().empty());
  for (const auto& sample : registry.samples()) {
    for (const char* deleted : {"mpte_ckpt_drops_", "mpte_ckpt_duplicates_"}) {
      EXPECT_FALSE(sample.name.starts_with(deleted)) << sample.name;
    }
  }
}

}  // namespace
}  // namespace mpte::ckpt
