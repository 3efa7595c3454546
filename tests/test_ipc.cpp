// Tests for the multi-process MPC backend (src/ipc/).
//
// The contract under test is byte-identity: Backend::kMultiProcess must
// produce exactly the stores, messages, RoundStats, and golden
// fingerprints of the in-process simulator, because everything after step
// execution runs on the shared coordinator-side code path. Plus the
// failure half: a worker that dies mid-round surfaces as a typed
// WorkerLost with no leaked child process, and a checkpointed run
// recovers from it byte-identically. Every round here is a registered
// named step — the only kind a worker process can execute.
#include "ipc/proc_backend.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <thread>

#include "ckpt/manager.hpp"
#include "ckpt/recovery.hpp"
#include "common/checksum.hpp"
#include "common/serialize.hpp"
#include "golden.hpp"
#include "ipc/frames.hpp"
#include "mpc/cluster.hpp"
#include "mpc/step.hpp"
#include "obs/metrics.hpp"

namespace mpte {
namespace {

using golden::golden_config;
using golden::golden_embed;
using golden::kGoldenHash;

/// True once every child of this process has been reaped — the "no
/// zombies" assertion.
bool no_children_remain() {
  const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
  return r == -1 && errno == ECHILD;
}

// Test steps, registered once per process: workers resolve these by name
// from their own StepRegistry. seed/mix/cleanup form a 3-round pipeline
// exercising every delta kind — fresh keys, overwrites, erases, and
// inbox-dependent writes; ring is parameterized by its round.
mpc::Step make_test_seed(mpc::StepParams /*params*/) {
  return [](mpc::MachineContext& ctx) {
    const std::size_t m = ctx.num_machines();
    ctx.store().set_vector<std::uint32_t>("val", {ctx.id(), 100});
    Serializer s;
    s.write(static_cast<std::uint64_t>(ctx.id() * 7));
    ctx.send((ctx.id() + 1) % m, std::move(s), "test/ring");
  };
}

mpc::Step make_test_mix(mpc::StepParams /*params*/) {
  return [](mpc::MachineContext& ctx) {
    if (ctx.inbox().size() != 1) throw MpteError("expected 1 message");
    ctx.store().set_blob("got", ctx.inbox()[0].payload);
    if (ctx.id() % 2 == 0) {
      ctx.store().erase("val");
    } else {
      ctx.store().set_vector<std::uint32_t>("val", {ctx.id(), 200});
    }
    ctx.store().set_value<std::uint64_t>("extra", ctx.id() + 40);
  };
}

mpc::Step make_test_cleanup(mpc::StepParams /*params*/) {
  return [](mpc::MachineContext& ctx) { ctx.store().erase("extra"); };
}

mpc::Step make_test_ring(mpc::StepParams params) {
  Deserializer d(params);
  const auto r = d.read<std::uint64_t>();
  return [r](mpc::MachineContext& ctx) {
    const std::size_t m = ctx.num_machines();
    std::uint64_t acc = r;
    for (const auto& msg : ctx.inbox()) acc += msg.payload.size();
    ctx.store().set_value<std::uint64_t>("acc/" + std::to_string(r),
                                         acc + ctx.id());
    Serializer s;
    for (std::uint64_t i = 0; i <= r; ++i) {
      s.write(static_cast<std::uint64_t>(ctx.id() + i));
    }
    ctx.send((ctx.id() + 1) % m, std::move(s), "test/ring");
  };
}

/// Rank 1 stalls far past any test's round deadline.
mpc::Step make_test_stall(mpc::StepParams /*params*/) {
  return [](mpc::MachineContext& ctx) {
    if (ctx.id() == 1) std::this_thread::sleep_for(std::chrono::seconds(10));
  };
}

/// Every rank but 0 throws, naming itself.
mpc::Step make_test_throw(mpc::StepParams /*params*/) {
  return [](mpc::MachineContext& ctx) {
    if (ctx.id() >= 1) {
      throw MpteError("boom from rank " + std::to_string(ctx.id()));
    }
  };
}

const mpc::RegisterStep kRegTestSeed{"test/seed", make_test_seed};
const mpc::RegisterStep kRegTestMix{"test/mix", make_test_mix};
const mpc::RegisterStep kRegTestCleanup{"test/cleanup", make_test_cleanup};
const mpc::RegisterStep kRegTestRing{"test/ring", make_test_ring};
const mpc::RegisterStep kRegTestStall{"test/stall", make_test_stall};
const mpc::RegisterStep kRegTestThrow{"test/throw", make_test_throw};

void run_named_delta_pipeline(mpc::Cluster& cluster) {
  cluster.run_round(mpc::StepSpec("test/seed"), "seed");
  cluster.run_round(mpc::StepSpec("test/mix"), "mix");
  cluster.run_round(mpc::StepSpec("test/cleanup"), "cleanup");
}

mpc::StepSpec ring_spec(std::uint64_t r) {
  Serializer s;
  s.write(r);
  return mpc::StepSpec("test/ring", std::move(s));
}

void run_ring_pipeline(mpc::Cluster& cluster, std::size_t rounds) {
  for (std::uint64_t r = 0; r < rounds; ++r) {
    cluster.run_round(ring_spec(r), "ring/" + std::to_string(r));
  }
}

void expect_records_equal(const mpc::RoundStats& a, const mpc::RoundStats& b) {
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t r = 0; r < a.records().size(); ++r) {
    const auto& ra = a.records()[r];
    const auto& rb = b.records()[r];
    EXPECT_EQ(ra.label, rb.label) << "round " << r;
    EXPECT_EQ(ra.max_sent_bytes, rb.max_sent_bytes) << "round " << r;
    EXPECT_EQ(ra.max_recv_bytes, rb.max_recv_bytes) << "round " << r;
    EXPECT_EQ(ra.total_message_bytes, rb.total_message_bytes)
        << "round " << r;
    EXPECT_EQ(ra.max_resident_bytes, rb.max_resident_bytes) << "round " << r;
    EXPECT_EQ(ra.total_resident_bytes, rb.total_resident_bytes)
        << "round " << r;
    EXPECT_EQ(ra.violations, rb.violations) << "round " << r;
    EXPECT_EQ(ra.channel_bytes, rb.channel_bytes) << "round " << r;
  }
}

void expect_stores_equal(const mpc::Cluster& a, const mpc::Cluster& b) {
  ASSERT_EQ(a.num_machines(), b.num_machines());
  for (mpc::MachineId id = 0; id < a.num_machines(); ++id) {
    const auto ea = a.store(id).entries();
    const auto eb = b.store(id).entries();
    ASSERT_EQ(ea.size(), eb.size()) << "machine " << id;
    for (std::size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].first, eb[k].first) << "machine " << id;
      EXPECT_TRUE(ea[k].second == eb[k].second)
          << "machine " << id << " key " << ea[k].first;
    }
  }
}

const ipc::ProcBackend* proc_backend(const mpc::Cluster& cluster) {
  return dynamic_cast<const ipc::ProcBackend*>(cluster.round_executor());
}

TEST(BackendEquivalence, GoldenFingerprintAcrossBackendsAndThreads) {
  for (const mpc::Backend backend :
       {mpc::Backend::kInProcess, mpc::Backend::kMultiProcess}) {
    for (const std::size_t threads : {1u, 8u}) {
      mpc::Cluster cluster(golden_config(threads, backend));
      const auto result = golden_embed(cluster);
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_EQ(golden::fingerprint(*result), kGoldenHash)
          << "proc=" << (backend == mpc::Backend::kMultiProcess)
          << " threads=" << threads;
      if (backend == mpc::Backend::kMultiProcess) {
        // Frame bytes actually moved through the shared-memory rings.
        ASSERT_NE(proc_backend(cluster), nullptr);
        EXPECT_GT(proc_backend(cluster)->stats().shm_bytes, 0u);
      }
    }
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(BackendEquivalence, RoundStatsAndChannelBytesIdentical) {
  mpc::Cluster inproc(golden_config(1));
  {
    mpc::Cluster proc(golden_config(8, mpc::Backend::kMultiProcess));
    ASSERT_TRUE(golden_embed(inproc).ok());
    ASSERT_TRUE(golden_embed(proc).ok());
    expect_records_equal(inproc.stats(), proc.stats());
    EXPECT_EQ(inproc.stats().channel_totals(), proc.stats().channel_totals());
    expect_stores_equal(inproc, proc);

    // The whole embedding pipeline ran on one pool: each rank forked once.
    const auto* backend = proc_backend(proc);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->stats().workers_forked, proc.num_machines());
    EXPECT_GT(backend->stats().step_frames_sent, 0u);
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(BackendEquivalence, TinyRingStreamsFramesWithoutChangingResults) {
  // A ring far smaller than the big resync/result frames: those frames
  // stream through it in chunks (the producer waits on the full ring),
  // and not a byte of the result changes.
  for (const std::size_t threads : {1u, 8u}) {
    mpc::ClusterConfig config =
        golden_config(threads, mpc::Backend::kMultiProcess);
    config.ipc.shm_ring_bytes = 1u << 10;
    config.ipc.shm_arena_bytes = 1u << 12;
    {
      mpc::Cluster cluster(config);
      const auto result = golden_embed(cluster);
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_EQ(golden::fingerprint(*result), kGoldenHash)
          << "threads=" << threads;
      const auto* backend = proc_backend(cluster);
      ASSERT_NE(backend, nullptr);
      EXPECT_GT(backend->stats().ring_full_waits, 0u);
      // The ring is the only carrier: no series counts frames on another.
      obs::Registry registry;
      backend->export_metrics(registry);
      EXPECT_EQ(registry.prometheus_text().find(
                    "mpte_ipc_fallback_frames_total"),
                std::string::npos);
    }  // ~Cluster joins the pool before the zombie check
    EXPECT_TRUE(no_children_remain());
  }
}

TEST(PersistentWorkers, HostedClosureIsRejectedBeforeFork) {
  mpc::ClusterConfig config;
  config.num_machines = 3;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  mpc::Cluster cluster(config);
  try {
    cluster.run_round(
        [](mpc::MachineContext& ctx) {
          ctx.store().set_value<std::uint64_t>("tick", ctx.id());
        },
        "adhoc");
    FAIL() << "expected MpteError";
  } catch (const MpteError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'adhoc'"), std::string::npos) << what;
    EXPECT_NE(what.find("mpc::RegisterStep"), std::string::npos) << what;
  }
  // Nothing was forked, executed, or recorded.
  EXPECT_EQ(cluster.stats().rounds(), 0u);
  EXPECT_EQ(cluster.round_executor(), nullptr);
  EXPECT_FALSE(cluster.store(0).contains("tick"));
  EXPECT_TRUE(no_children_remain());
}

TEST(PersistentWorkers, NamedPipelineRunsWithoutForkFallback) {
  mpc::ClusterConfig config;
  config.num_machines = 5;
  config.local_memory_bytes = 1 << 20;
  mpc::Cluster inproc(config);
  config.backend = mpc::Backend::kMultiProcess;
  {
    mpc::Cluster proc(config);
    run_named_delta_pipeline(inproc);
    run_named_delta_pipeline(proc);
    // Store deltas carried every kind — fresh keys, overwrites, erases —
    // back to the coordinator intact.
    expect_stores_equal(inproc, proc);
    expect_records_equal(inproc.stats(), proc.stats());

    const auto* backend = proc_backend(proc);
    ASSERT_NE(backend, nullptr);
    const ipc::IpcStats& stats = backend->stats();
    EXPECT_EQ(stats.rounds, 3u);
    // One pool spawn, not one fork per rank per round.
    EXPECT_EQ(stats.workers_forked, 5u);
    EXPECT_EQ(stats.workers_respawned, 0u);
    EXPECT_EQ(stats.step_frames_sent, 15u);
    EXPECT_GT(stats.step_wire_bytes, 0u);
    // Full resync once per worker at spawn, then dirty-key deltas only.
    EXPECT_EQ(stats.store_resyncs, 5u);
    ASSERT_EQ(stats.step_rounds.size(), 3u);
    EXPECT_EQ(stats.step_rounds.at("test/seed"), 1u);
    EXPECT_EQ(stats.step_rounds.at("test/mix"), 1u);
    EXPECT_EQ(stats.step_rounds.at("test/cleanup"), 1u);
  }
  // ~Cluster shut the pool down (kShutdown + reap): no zombies.
  EXPECT_TRUE(no_children_remain());
}

TEST(PersistentWorkers, KillMidRunRespawnsPoolAndResyncsStores) {
  mpc::ClusterConfig config;
  config.num_machines = 4;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  config.ipc.kill_at_round = 1;
  config.ipc.kill_rank = 2;
  {
    mpc::Cluster cluster(config);
    cluster.run_round(ring_spec(0), "ring/0");
    try {
      cluster.run_round(ring_spec(1), "ring/1");
      FAIL() << "expected WorkerLost";
    } catch (const ipc::WorkerLost& lost) {
      EXPECT_EQ(lost.rank(), 2u);
      EXPECT_EQ(lost.round(), 1u);
      EXPECT_EQ(lost.cause(), ipc::WorkerLost::Cause::kDied);
    }
    // The lost round's pool was killed and every child reaped at once.
    EXPECT_TRUE(no_children_remain());
    // The failed round mutated nothing: retry it and run to completion.
    // The backend respawns the whole pool and re-seeds every worker's
    // store from the coordinator's authoritative copy.
    EXPECT_EQ(cluster.stats().rounds(), 1u);
    for (std::uint64_t r = 1; r < 5; ++r) {
      cluster.run_round(ring_spec(r), "ring/" + std::to_string(r));
    }

    const auto* backend = proc_backend(cluster);
    ASSERT_NE(backend, nullptr);
    const ipc::IpcStats& stats = backend->stats();
    EXPECT_EQ(stats.workers_lost, 1u);
    EXPECT_EQ(stats.workers_respawned, 4u);
    // Initial spawn + post-kill respawn: two full resyncs per rank.
    EXPECT_EQ(stats.store_resyncs, 8u);

    // Byte-identity with an uninterrupted in-process run.
    mpc::ClusterConfig reference_config;
    reference_config.num_machines = 4;
    reference_config.local_memory_bytes = 1 << 20;
    mpc::Cluster reference(reference_config);
    run_ring_pipeline(reference, 5);
    expect_stores_equal(reference, cluster);
    expect_records_equal(reference.stats(), cluster.stats());
    EXPECT_EQ(reference.stats().channel_totals(),
              cluster.stats().channel_totals());
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(PersistentWorkers, CheckpointRecoveryIsByteIdentical) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mpte_ipc_persistent_recovery_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  mpc::ClusterConfig config;
  config.num_machines = 4;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  config.checkpoint.directory = dir;
  config.checkpoint.every_k = 1;
  config.ipc.kill_at_round = 2;
  config.ipc.kill_rank = 1;
  {
    mpc::Cluster cluster(config);
    ckpt::Coordinator coordinator = ckpt::Coordinator::for_cluster(cluster);
    cluster.set_hooks(&coordinator);

    const Status done = ckpt::run_with_recovery(cluster, coordinator, [&] {
      run_ring_pipeline(cluster, 5);
      return Status::Ok();
    });
    ASSERT_TRUE(done.ok()) << done.to_string();
    EXPECT_GE(cluster.stats().resilience().recoveries, 1u);
    EXPECT_GE(cluster.stats().resilience().rounds_replayed, 1u);

    const auto* backend = proc_backend(cluster);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->stats().workers_lost, 1u);
    EXPECT_GE(backend->stats().workers_respawned, 4u);
    EXPECT_GE(backend->stats().store_resyncs, 8u);

    mpc::ClusterConfig reference_config;
    reference_config.num_machines = 4;
    reference_config.local_memory_bytes = 1 << 20;
    mpc::Cluster reference(reference_config);
    run_ring_pipeline(reference, 5);
    expect_stores_equal(reference, cluster);
    EXPECT_EQ(reference.stats().channel_totals(),
              cluster.stats().channel_totals());
  }
  EXPECT_TRUE(no_children_remain());
  std::filesystem::remove_all(dir);
}

TEST(PersistentWorkers, GoldenEmbedRecoversFromKilledWorker) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mpte_ipc_persistent_golden_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  mpc::ClusterConfig config = golden_config(8, mpc::Backend::kMultiProcess);
  config.checkpoint.directory = dir;
  config.checkpoint.every_k = 2;
  config.ipc.kill_at_round = 5;
  config.ipc.kill_rank = 3;
  {
    mpc::Cluster cluster(config);
    ckpt::Coordinator coordinator = ckpt::Coordinator::for_cluster(cluster);
    cluster.set_hooks(&coordinator);

    std::optional<MpcEmbedding> result;
    const Status done = ckpt::run_with_recovery(cluster, coordinator, [&] {
      auto embedded = golden_embed(cluster);
      if (!embedded.ok()) return embedded.status();
      result = std::move(*embedded);
      return Status::Ok();
    });
    ASSERT_TRUE(done.ok()) << done.to_string();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(golden::fingerprint(*result), kGoldenHash);
    EXPECT_GE(cluster.stats().resilience().recoveries, 1u);
  }
  EXPECT_TRUE(no_children_remain());
  std::filesystem::remove_all(dir);
}

TEST(Frames, StepAndShutdownRoundTrip) {
  ipc::StepFrame frame;
  frame.rank = 2;
  frame.round = 41;
  frame.step_name = "test/ring";
  frame.step_params = mpc::Buffer({7, 0, 0, 0, 0, 0, 0, 0});
  frame.reset_store = true;
  frame.inject_kill = false;
  frame.store_patch.push_back({"alpha", true, mpc::Buffer({1, 2, 3})});
  frame.store_patch.push_back({"beta", false, mpc::Buffer()});
  mpc::Message message;
  message.from = 1;
  message.payload = mpc::Buffer({9, 8, 7});
  frame.inbox.push_back(message);

  const mpc::Buffer encoded = ipc::encode_step(frame);
  auto decoded = ipc::decode_envelope(encoded.span());
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->kind, ipc::FrameKind::kStep);
  EXPECT_EQ(decoded->step.rank, 2u);
  EXPECT_EQ(decoded->step.round, 41u);
  EXPECT_EQ(decoded->step.step_name, "test/ring");
  EXPECT_TRUE(decoded->step.step_params == frame.step_params);
  EXPECT_TRUE(decoded->step.reset_store);
  EXPECT_FALSE(decoded->step.inject_kill);
  ASSERT_EQ(decoded->step.store_patch.size(), 2u);
  EXPECT_EQ(decoded->step.store_patch[0].key, "alpha");
  EXPECT_TRUE(decoded->step.store_patch[0].present);
  EXPECT_TRUE(decoded->step.store_patch[0].blob == frame.store_patch[0].blob);
  EXPECT_FALSE(decoded->step.store_patch[1].present);
  ASSERT_EQ(decoded->step.inbox.size(), 1u);
  EXPECT_EQ(decoded->step.inbox[0].from, 1u);
  EXPECT_TRUE(decoded->step.inbox[0].payload == message.payload);

  const auto shutdown =
      ipc::decode_envelope(ipc::encode_shutdown().span());
  ASSERT_TRUE(shutdown.ok()) << shutdown.status().to_string();
  EXPECT_EQ(shutdown->kind, ipc::FrameKind::kShutdown);
}

TEST(Frames, ResultRoundTripAndCorruptionDetection) {
  ipc::ResultFrame frame;
  frame.rank = 3;
  frame.round = 17;
  frame.store_delta.push_back(
      {"alpha", true, mpc::Buffer({1, 2, 3, 4, 5})});
  frame.store_delta.push_back({"beta", false, mpc::Buffer()});
  frame.fragments.resize(2);
  frame.fragments[1].push_back(mpc::Buffer({9, 9}));
  frame.channel_bytes["test/chan"] = 2;

  const mpc::Buffer encoded = ipc::encode_result(frame);
  auto decoded = ipc::decode_envelope(encoded.span());
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->kind, ipc::FrameKind::kResult);
  EXPECT_EQ(decoded->wire_bytes, encoded.size());
  EXPECT_EQ(decoded->result.rank, 3u);
  EXPECT_EQ(decoded->result.round, 17u);
  ASSERT_EQ(decoded->result.store_delta.size(), 2u);
  EXPECT_EQ(decoded->result.store_delta[0].key, "alpha");
  EXPECT_TRUE(decoded->result.store_delta[0].present);
  EXPECT_TRUE(decoded->result.store_delta[0].blob == frame.store_delta[0].blob);
  EXPECT_FALSE(decoded->result.store_delta[1].present);
  ASSERT_EQ(decoded->result.fragments.size(), 2u);
  EXPECT_TRUE(decoded->result.fragments[1][0] == frame.fragments[1][0]);
  EXPECT_EQ(decoded->result.channel_bytes, frame.channel_bytes);

  // Flip one payload byte: the envelope digest must reject the frame.
  std::vector<std::uint8_t> corrupt(encoded.data(),
                                    encoded.data() + encoded.size());
  corrupt[corrupt.size() / 2] ^= 0x40;
  const auto rejected = ipc::decode_envelope(corrupt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(Frames, ReservedKindTwoIsRejected) {
  // Kind value 2 named a retired frame; a well-formed envelope (valid
  // digest) carrying it must still be refused.
  Serializer payload;
  payload.write(static_cast<std::uint32_t>(2));
  payload.write(static_cast<std::uint64_t>(41));
  const mpc::Buffer encoded(wrap_checksummed(payload.bytes()));

  const auto decoded = ipc::decode_envelope(encoded.span());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(Frames, InflatedCountsBehindAValidChecksumAreRefusedUpFront) {
  // Each count of a kResult or kStep frame in turn claims 2^20 records
  // while only a few bytes follow it. The decoder must refuse the count
  // itself, before it reserves or resizes anything for it.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 20;
  const auto u64 = [](Serializer& s, std::uint64_t v) { s.write(v); };
  const auto result_head = [](Serializer& s) {
    s.write(static_cast<std::uint32_t>(ipc::FrameKind::kResult));
    s.write(mpc::MachineId{1});
    s.write(std::uint64_t{7});
  };
  const auto step_head = [](Serializer& s) {
    s.write(static_cast<std::uint32_t>(ipc::FrameKind::kStep));
    s.write(mpc::MachineId{1});
    s.write(std::uint64_t{7});
    s.write_string("test/ring");
    s.write(std::uint8_t{0});  // inline step_params blob
    s.write_span(std::span<const std::uint8_t>());
    s.write(std::uint8_t{0});  // reset_store
    s.write(std::uint8_t{0});  // inject_kill
  };
  struct Case {
    const char* count;
    std::function<void(Serializer&)> build;
  };
  const std::vector<Case> cases = {
      {"num_deltas", [&](Serializer& s) { result_head(s); u64(s, kHuge); }},
      {"num_dst",
       [&](Serializer& s) {
         result_head(s);
         u64(s, 0);
         u64(s, kHuge);
       }},
      {"num_fragments",
       [&](Serializer& s) {
         result_head(s);
         u64(s, 0);
         u64(s, 1);
         u64(s, kHuge);
       }},
      {"num_channels",
       [&](Serializer& s) {
         result_head(s);
         u64(s, 0);
         u64(s, 0);
         u64(s, kHuge);
       }},
      {"num_patch", [&](Serializer& s) { step_head(s); u64(s, kHuge); }},
      {"num_messages",
       [&](Serializer& s) {
         step_head(s);
         u64(s, 0);
         u64(s, kHuge);
       }},
  };
  for (const Case& c : cases) {
    Serializer payload;
    c.build(payload);
    payload.write(std::uint64_t{0});  // a few bytes, far short of kHuge
    const mpc::Buffer encoded(wrap_checksummed(payload.bytes()));
    const auto decoded = ipc::decode_envelope(encoded.span());
    ASSERT_FALSE(decoded.ok()) << c.count;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << c.count;
    EXPECT_NE(decoded.status().message().find("length prefix exceeds"),
              std::string::npos)
        << c.count << ": " << decoded.status().message();
  }
}

TEST(Frames, ArenaReferencesMayNotCopyMoreThanTheArena) {
  // A kStep whose 64 inbox messages each reference the whole arena: 64 *
  // 17 frame bytes that would copy 64 arenas. The encoder never writes
  // overlapping references, so the decoder refuses the frame.
  const std::vector<std::uint8_t> arena(4096, 0xab);
  const auto step = [&](std::size_t references) {
    Serializer s;
    s.write(static_cast<std::uint32_t>(ipc::FrameKind::kStep));
    s.write(mpc::MachineId{1});
    s.write(std::uint64_t{7});
    s.write_string("test/ring");
    s.write(std::uint8_t{0});  // inline step_params blob
    s.write_span(std::span<const std::uint8_t>());
    s.write(std::uint8_t{0});  // reset_store
    s.write(std::uint8_t{0});  // inject_kill
    s.write(std::uint64_t{0});  // no store patch
    s.write(static_cast<std::uint64_t>(references));
    for (std::size_t i = 0; i < references; ++i) {
      s.write(mpc::MachineId{0});
      s.write(std::uint8_t{1});  // arena reference
      s.write(std::uint64_t{0});
      s.write(static_cast<std::uint64_t>(arena.size()));
    }
    return mpc::Buffer(wrap_checksummed(s.bytes()));
  };
  // One reference to the whole arena is what a valid frame may hold.
  const auto one = ipc::decode_envelope(step(1).span(), arena);
  ASSERT_TRUE(one.ok()) << one.status().to_string();
  ASSERT_EQ(one->step.inbox.size(), 1u);
  EXPECT_EQ(one->step.inbox[0].payload.size(), arena.size());

  const auto many = ipc::decode_envelope(step(64).span(), arena);
  ASSERT_FALSE(many.ok());
  EXPECT_EQ(many.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(many.status().message().find("copy more than the arena"),
            std::string::npos)
      << many.status().message();
}

TEST(WorkerLoss, DeadlineMissSurfacesAsWorkerLost) {
  mpc::ClusterConfig config;
  config.num_machines = 2;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  config.ipc.round_deadline_ms = 150;
  mpc::Cluster cluster(config);
  try {
    cluster.run_round(mpc::StepSpec("test/stall"), "stall");
    FAIL() << "expected WorkerLost";
  } catch (const ipc::WorkerLost& lost) {
    EXPECT_EQ(lost.rank(), 1u);
    EXPECT_EQ(lost.cause(), ipc::WorkerLost::Cause::kDeadline);
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(WorkerLoss, StepExceptionPropagatesLikeInProcess) {
  mpc::ClusterConfig config;
  config.num_machines = 3;
  config.local_memory_bytes = 1 << 20;
  for (const mpc::Backend backend :
       {mpc::Backend::kInProcess, mpc::Backend::kMultiProcess}) {
    config.backend = backend;
    mpc::Cluster cluster(config);
    try {
      cluster.run_round(mpc::StepSpec("test/throw"), "throwing");
      FAIL() << "expected MpteError";
    } catch (const MpteError& e) {
      // Lowest failing rank wins, matching serial in-process order.
      EXPECT_STREQ(e.what(), "boom from rank 1");
    }
    EXPECT_EQ(cluster.stats().rounds(), 0u);
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(Metrics, StepRoundsExportWithStepNameLabels) {
  mpc::ClusterConfig config;
  config.num_machines = 3;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  {
    mpc::Cluster cluster(config);
    run_named_delta_pipeline(cluster);
    const auto* backend = proc_backend(cluster);
    ASSERT_NE(backend, nullptr);
    const ipc::IpcStats& stats = backend->stats();
    EXPECT_EQ(stats.rounds, 3u);
    EXPECT_EQ(stats.workers_forked, 3u);
    EXPECT_EQ(stats.frames_received, 9u);
    EXPECT_EQ(stats.workers_lost, 0u);
    EXPECT_GT(stats.result_wire_bytes, 0u);
    EXPECT_GT(stats.store_delta_bytes, 0u);
    EXPECT_GT(stats.fragment_bytes, 0u);

    obs::Registry registry;
    backend->export_metrics(registry);
    EXPECT_EQ(registry.counter_value("mpte_ipc_rounds_total"), stats.rounds);
    EXPECT_EQ(registry.counter_value("mpte_ipc_workers_forked_total"),
              stats.workers_forked);
    EXPECT_EQ(registry.counter_value("mpte_ipc_result_wire_bytes_total"),
              stats.result_wire_bytes);
    const std::string prom = registry.prometheus_text();
    EXPECT_NE(prom.find("mpte_ipc_barrier_seconds"), std::string::npos);
    EXPECT_NE(prom.find("mpte_ipc_step_frames_sent_total"),
              std::string::npos);
    EXPECT_NE(prom.find("mpte_ipc_workers_respawned_total"),
              std::string::npos);
    EXPECT_NE(prom.find("mpte_ipc_store_resyncs_total"), std::string::npos);
    EXPECT_NE(
        prom.find("mpte_ipc_step_rounds_total{step=\"test/seed\"} 1"),
        std::string::npos)
        << prom;
  }
  EXPECT_TRUE(no_children_remain());
}

}  // namespace
}  // namespace mpte
