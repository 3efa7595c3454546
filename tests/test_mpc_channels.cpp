#include "mpc/channel.hpp"

#include <gtest/gtest.h>


#include "golden.hpp"
#include "mpc/primitives.hpp"
#include "tree/distortion.hpp"

namespace mpte::mpc {
namespace {

struct Record {
  std::uint64_t id;
  double weight;

  friend bool operator==(const Record&, const Record&) = default;
};

TEST(TypedKeys, VectorRoundTrip) {
  const Key<Record> key{"recs"};
  LocalStore store;
  EXPECT_FALSE(key.in(store));
  const std::vector<Record> values{{1, 0.5}, {2, -3.25}};
  key.set(store, values);
  EXPECT_TRUE(key.in(store));
  EXPECT_EQ(key.get(store), values);
  key.erase(store);
  EXPECT_FALSE(key.in(store));
  EXPECT_EQ(store.resident_bytes(), 0u);
}

TEST(TypedKeys, ValueRoundTrip) {
  const ValueKey<double> key{"x"};
  LocalStore store;
  key.set(store, 2.5);
  EXPECT_TRUE(key.in(store));
  EXPECT_EQ(key.get(store), 2.5);
  key.erase(store);
  EXPECT_FALSE(key.in(store));
}

TEST(TypedChannel, BatchSendReceive) {
  Cluster cluster(ClusterConfig{3, 1 << 16, true});
  const Channel<Record> ch{"recs"};
  cluster.run_round([&](MachineContext& ctx) {
    // Every machine sends two batches to rank 0 (they concatenate into
    // one message; the length prefixes keep them separable).
    ch.send(ctx, 0, std::vector<Record>{{ctx.id(), 1.0}});
    ch.send(ctx, 0, std::vector<Record>{{ctx.id() + 10u, 2.0}});
  });
  cluster.run_round([&](MachineContext& ctx) {
    if (ctx.id() != 0) return;
    const auto records = ch.receive(ctx);
    // Source rank order, batches in send order within each source.
    const std::vector<Record> expected{{0, 1.0}, {10, 2.0}, {1, 1.0},
                                       {11, 2.0}, {2, 1.0}, {12, 2.0}};
    EXPECT_EQ(records, expected);
  });
}

TEST(TypedChannel, RawSendReceive) {
  Cluster cluster(ClusterConfig{4, 1 << 16, true});
  const Channel<std::uint64_t> ch{"ints"};
  cluster.run_round([&](MachineContext& ctx) {
    ch.send_one(ctx, 0, std::uint64_t{100} + ctx.id());
  });
  cluster.run_round([&](MachineContext& ctx) {
    if (ctx.id() != 0) return;
    EXPECT_EQ(ch.receive_raw(ctx),
              (std::vector<std::uint64_t>{100, 101, 102, 103}));
  });
}

TEST(TypedChannel, RawSendCostsExactlySizeofT) {
  Cluster cluster(ClusterConfig{2, 1 << 16, true});
  const Channel<std::uint64_t> ch{"ints"};
  cluster.run_round(
      [&](MachineContext& ctx) { ch.send_one(ctx, 0, ctx.id()); });
  EXPECT_EQ(cluster.stats().records()[0].total_message_bytes,
            2 * sizeof(std::uint64_t));
}

TEST(ChannelStats, PerChannelBytesSumToRoundTotals) {
  Cluster cluster(ClusterConfig{4, 1 << 16, true});
  const Channel<std::uint64_t> a{"stream-a"};
  const Channel<Record> b{"stream-b"};
  cluster.run_round([&](MachineContext& ctx) {
    a.send(ctx, (ctx.id() + 1) % 4,
           std::vector<std::uint64_t>(ctx.id() + 1, 7));
    b.send_one(ctx, 0, Record{ctx.id(), 1.0});
    if (ctx.id() == 2) {
      ctx.send(3, std::vector<std::uint8_t>(13));  // untyped raw bytes
    }
  });
  cluster.run_round([](MachineContext&) {});  // drains inboxes, no sends

  for (const RoundRecord& record : cluster.stats().records()) {
    std::size_t channel_sum = 0;
    for (const auto& [channel, bytes] : record.channel_bytes) {
      channel_sum += bytes;
    }
    EXPECT_EQ(channel_sum, record.total_message_bytes)
        << "round '" << record.label << "'";
  }

  const auto& first = cluster.stats().records()[0].channel_bytes;
  // a: machine i sends 8 + (i+1)*8 bytes -> 4*8 + (1+2+3+4)*8 = 112.
  EXPECT_EQ(first.at("stream-a"), 112u);
  EXPECT_EQ(first.at("stream-b"), 4 * sizeof(Record));
  EXPECT_EQ(first.at(kUntypedChannel), 13u);

  // Aggregates: channel_totals() is sorted by descending bytes and sums
  // match the per-round attribution.
  const auto totals = cluster.stats().channel_totals();
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0].first, "stream-a");
  for (std::size_t i = 1; i < totals.size(); ++i) {
    EXPECT_GE(totals[i - 1].second, totals[i].second);
  }
}

TEST(ChannelStats, PrimitivesAttributeTheirTraffic) {
  Cluster cluster(ClusterConfig{4, 1 << 16, true});
  std::vector<KV> records;
  for (std::uint64_t i = 0; i < 64; ++i) records.push_back(KV{i % 8, 1});
  scatter_vector(cluster, "in", records);
  reduce_kv_sum(cluster, "in", "out");

  std::size_t tagged = 0;
  for (const auto& [channel, bytes] : cluster.stats().channel_totals()) {
    EXPECT_NE(channel, kUntypedChannel);
    tagged += bytes;
  }
  std::size_t total = 0;
  for (const auto& record : cluster.stats().records()) {
    total += record.total_message_bytes;
  }
  EXPECT_EQ(tagged, total);
  // The shuffle traffic is filed under the input key's name.
  const auto& round0 = cluster.stats().records()[0];
  ASSERT_TRUE(round0.channel_bytes.contains("in"));
}

TEST(Violations, EnforcementOffStillRecordsBreaches) {
  // 64-byte machines; one machine sends 128 bytes and every machine ends
  // the round holding it. With enforcement off nothing throws, but the
  // stats must record every breach: 1 send + 1 receive + 1 residency.
  ClusterConfig config{2, 64, /*enforce_limits=*/false};
  Cluster cluster(config);
  cluster.run_round([&](MachineContext& ctx) {
    if (ctx.id() == 0) ctx.send(1, std::vector<std::uint8_t>(128));
  });
  ASSERT_EQ(cluster.stats().rounds(), 1u);
  EXPECT_EQ(cluster.stats().records()[0].violations, 3u);
  EXPECT_EQ(cluster.stats().total_violations(), 3u);

  // A quiet round adds no violations.
  cluster.run_round([](MachineContext&) {});
  EXPECT_EQ(cluster.stats().records()[1].violations, 0u);
  EXPECT_EQ(cluster.stats().total_violations(), 3u);

  // The summary surfaces the count.
  EXPECT_NE(cluster.stats().summary().find("violations=3"),
            std::string::npos);
}

TEST(Violations, EnforcementOnStillThrows) {
  Cluster cluster(ClusterConfig{2, 64, /*enforce_limits=*/true});
  EXPECT_THROW(cluster.run_round([&](MachineContext& ctx) {
    if (ctx.id() == 0) ctx.send(1, std::vector<std::uint8_t>(128));
  }),
               MpcViolation);
  // The failed round is not recorded.
  EXPECT_EQ(cluster.stats().rounds(), 0u);
  EXPECT_EQ(cluster.stats().total_violations(), 0u);
}

TEST(GoldenSeed, EmbeddingIsByteIdenticalAcrossRefactorsAndThreads) {
  // Fingerprint of mpc_embed's output (tree bytes + embedded point bytes)
  // for a pinned configuration, captured from the pre-Buffer/-Channel
  // implementation. Any change to this hash means the communication
  // refactor altered the computed embedding, which it must never do.
  // Checked at 1 and 8 cluster threads. Host-side measurements like
  // measure_distortion are deliberately not hashed: their parallel
  // accumulation order follows MPTE_THREADS, not the cluster config.
  for (const std::size_t threads : {1u, 8u}) {
    mpc::Cluster cluster(golden::golden_config(threads));
    const auto result = golden::golden_embed(cluster);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(golden::fingerprint(*result), golden::kGoldenHash)
        << "threads=" << threads;

    const DistortionStats stats =
        measure_distortion(result->tree, result->embedded_points, 5000, 3);
    EXPECT_GE(stats.min_ratio, 1.0);
    EXPECT_LE(stats.mean_ratio, stats.max_ratio);
  }
}

}  // namespace
}  // namespace mpte::mpc
