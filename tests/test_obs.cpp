// mpte::obs — tracer, metrics registry, and profiling hooks.
//
// The load-bearing test is ObservationOnly: the golden-seed embedding
// fingerprint (see test_mpc_channels.cpp) must be byte-identical with the
// tracer enabled and disabled, at 1 and 8 cluster threads — spans observe
// the pipeline, they never participate in it.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/embedder.hpp"
#include "core/ensemble.hpp"
#include "dyn/dynamic_ensemble.hpp"
#include "geometry/generators.hpp"
#include "golden.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace mpte::obs {
namespace {

// ---------------------------------------------------------------- tracer

TEST(Tracer, DisabledByDefaultAndSpansAreFree) {
  Tracer& tracer = Tracer::global();
  tracer.disable();
  ASSERT_FALSE(tracer.enabled());
  { const Span span("test", "never-recorded"); }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Tracer, RecordsNestedSpansWithDepthAndContainment) {
  Tracer& tracer = Tracer::global();
  tracer.enable();
  {
    const Span outer("test", "outer", "n", 7);
    const Span inner("test", "inner");
  }
  tracer.disable();
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans record on close, so the inner span lands first.
  const SpanEvent& inner = events[0];
  const SpanEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(outer.thread, inner.thread);
  EXPECT_STREQ(outer.arg_name, "n");
  EXPECT_EQ(outer.arg, 7u);
  // Containment: outer opens before inner and closes after it.
  EXPECT_LE(outer.start_us, inner.start_us);
  EXPECT_GE(outer.start_us + outer.duration_us,
            inner.start_us + inner.duration_us);
}

TEST(Tracer, EightThreadsNestCorrectlyAndIndependently) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRepeats = 50;
  Tracer& tracer = Tracer::global();
  tracer.enable();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (std::size_t i = 0; i < kRepeats; ++i) {
        const Span outer("test", "outer", "worker", t);
        const Span mid("test", "mid");
        const Span leaf("test", "leaf");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  tracer.disable();

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), kThreads * kRepeats * 3);
  EXPECT_EQ(tracer.overwritten(), 0u);

  // Per recording thread: depth is per-thread state, so each thread must
  // see a clean leaf(2) -> mid(1) -> outer(0) close cycle regardless of
  // how the 8 threads interleave in the shared ring.
  std::map<std::uint32_t, std::vector<const SpanEvent*>> by_thread;
  for (const SpanEvent& event : events) {
    by_thread[event.thread].push_back(&event);
  }
  ASSERT_EQ(by_thread.size(), kThreads);
  for (const auto& [thread, spans] : by_thread) {
    ASSERT_EQ(spans.size(), kRepeats * 3) << "thread " << thread;
    for (std::size_t i = 0; i < spans.size(); i += 3) {
      EXPECT_EQ(spans[i]->name, "leaf");
      EXPECT_EQ(spans[i]->depth, 2u);
      EXPECT_EQ(spans[i + 1]->name, "mid");
      EXPECT_EQ(spans[i + 1]->depth, 1u);
      EXPECT_EQ(spans[i + 2]->name, "outer");
      EXPECT_EQ(spans[i + 2]->depth, 0u);
      // Each level closes inside its parent.
      EXPECT_LE(spans[i + 2]->start_us, spans[i + 1]->start_us);
      EXPECT_LE(spans[i + 1]->start_us, spans[i]->start_us);
    }
  }
}

TEST(Tracer, RingOverwritesOldestAndCountsLosses) {
  Tracer& tracer = Tracer::global();
  tracer.enable(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const Span span("test", "span-" + std::to_string(i));
  }
  tracer.disable();
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tracer.overwritten(), 6u);
  // Oldest-first: the survivors are the last four spans, in order.
  EXPECT_EQ(events[0].name, "span-6");
  EXPECT_EQ(events[3].name, "span-9");
}

TEST(Tracer, ChromeTraceJsonIsStructurallyValid) {
  Tracer& tracer = Tracer::global();
  tracer.enable();
  {
    const Span span("test", R"(quoted "name" with \ backslash)", "arg", 3);
  }
  tracer.disable();
  const std::string json = tracer.chrome_trace_json();
  EXPECT_EQ(json.rfind(R"({"traceEvents":[)", 0), 0u) << json;
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("cat":"test")"), std::string::npos);
  EXPECT_NE(json.find(R"(\"name\")"), std::string::npos);  // escaped quote
  EXPECT_NE(json.find(R"("arg":3)"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
  // Balanced braces/brackets outside string literals.
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Tracer, FlameSummaryAggregatesByDepthAndName) {
  Tracer& tracer = Tracer::global();
  tracer.enable();
  for (int i = 0; i < 3; ++i) {
    const Span outer("test", "loop");
    const Span inner("test", "body");
  }
  tracer.disable();
  const std::string summary = tracer.flame_summary();
  EXPECT_NE(summary.find("test/loop"), std::string::npos) << summary;
  EXPECT_NE(summary.find("  test/body"), std::string::npos) << summary;
  // Both rows aggregate all three calls.
  EXPECT_NE(summary.find("3"), std::string::npos);
}

// --------------------------------------------------------------- metrics

TEST(Histogram, BucketMathFollowsBitWidth) {
  Histogram h;
  // bucket 0: the value 0. bucket i >= 1: [2^(i-1), 2^i).
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(4);
  h.observe(255);
  h.observe(256);
  EXPECT_EQ(h.bucket_count(0), 1u);  // 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // 1
  EXPECT_EQ(h.bucket_count(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket_count(3), 1u);  // 4
  EXPECT_EQ(h.bucket_count(8), 1u);  // 255
  EXPECT_EQ(h.bucket_count(9), 1u);  // 256
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 255 + 256);
  EXPECT_EQ(Histogram::bucket_upper_edge(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_edge(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_edge(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_edge(9), 511u);
  // A huge sample clamps into the last bucket instead of overflowing.
  h.observe(~0ull);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 1u);
  // observe(v, k) records k samples of v at once.
  Histogram repeated;
  repeated.observe(5, 10);
  EXPECT_EQ(repeated.bucket_count(3), 10u);
  EXPECT_EQ(repeated.count(), 10u);
  EXPECT_EQ(repeated.sum(), 50u);
}

TEST(Histogram, QuantileMatchesLegacyServeMath) {
  // The serve tier's percentile math moved here verbatim: target index is
  // q*(count-1), the answer is the exclusive upper bound 2^b of the
  // bucket holding it (1.0 for the lowest buckets).
  Histogram h;
  for (int i = 0; i < 10; ++i) h.observe(5);  // all in bucket 3
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 8.0);
  h.observe(1000);  // bucket 10 -> upper bound 1024
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1024.0);
  const Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  Histogram merged;
  merged.merge_from(h);
  merged.merge_from(h);
  EXPECT_EQ(merged.count(), 2 * h.count());
  EXPECT_EQ(merged.sum(), 2 * h.sum());
}

TEST(Registry, HandlesAreStableAndCreationIsIdempotent) {
  Registry registry;
  Counter& a = registry.counter("mpte_test_total", "help");
  Counter& b = registry.counter("mpte_test_total", "ignored on reuse");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.counter_value("mpte_test_total"), 3u);
  // Distinct labels are distinct series under one family.
  Counter& x = registry.counter("mpte_labeled_total", "h", {{"k", "x"}});
  Counter& y = registry.counter("mpte_labeled_total", "h", {{"k", "y"}});
  EXPECT_NE(&x, &y);
  x.add(1);
  y.add(2);
  EXPECT_EQ(registry.counter_value("mpte_labeled_total", {{"k", "x"}}), 1u);
  EXPECT_EQ(registry.counter_value("mpte_labeled_total", {{"k", "y"}}), 2u);
  EXPECT_EQ(registry.counter_value("absent"), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge_value("absent"), 0.0);
}

TEST(Registry, PrometheusTextGolden) {
  Registry registry;
  registry.counter("mpte_demo_events_total", "Events seen.").add(42);
  registry
      .counter("mpte_demo_bytes_total", "Bytes by channel.",
               {{"channel", "emb/edges"}})
      .add(1024);
  registry.gauge("mpte_demo_depth", "Current depth.").set(2.5);
  Histogram& h =
      registry.histogram("mpte_demo_latency_us", "Latency histogram.");
  h.observe(0);
  h.observe(3);
  h.observe(3);
  const std::string expected =
      "# HELP mpte_demo_bytes_total Bytes by channel.\n"
      "# TYPE mpte_demo_bytes_total counter\n"
      "mpte_demo_bytes_total{channel=\"emb/edges\"} 1024\n"
      "# HELP mpte_demo_depth Current depth.\n"
      "# TYPE mpte_demo_depth gauge\n"
      "mpte_demo_depth 2.5\n"
      "# HELP mpte_demo_events_total Events seen.\n"
      "# TYPE mpte_demo_events_total counter\n"
      "mpte_demo_events_total 42\n"
      "# HELP mpte_demo_latency_us Latency histogram.\n"
      "# TYPE mpte_demo_latency_us histogram\n"
      "mpte_demo_latency_us_bucket{le=\"0\"} 1\n"
      "mpte_demo_latency_us_bucket{le=\"1\"} 1\n"
      "mpte_demo_latency_us_bucket{le=\"3\"} 3\n"
      "mpte_demo_latency_us_bucket{le=\"+Inf\"} 3\n"
      "mpte_demo_latency_us_sum 6\n"
      "mpte_demo_latency_us_count 3\n"
      "# EOF\n";
  EXPECT_EQ(registry.prometheus_text(), expected);
}

TEST(Registry, LabelValuesAreEscaped) {
  Registry registry;
  registry
      .counter("mpte_esc_total", "h", {{"k", "quo\"te\\slash"}})
      .add(1);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find(R"(k="quo\"te\\slash")"), std::string::npos) << text;
}

// ---------------------------------------------- exporters stay in sync

TEST(Exporters, RoundStatsSummaryAndMetricsAgree) {
  mpc::Cluster cluster(mpc::ClusterConfig{4, 1 << 16, true});
  cluster.run_round(
      [](mpc::MachineContext& ctx) {
        ctx.send((ctx.id() + 1) % 4, std::vector<std::uint8_t>(64));
      },
      "ring");
  cluster.run_round([](mpc::MachineContext&) {}, "drain");

  Registry registry;
  cluster.stats().export_metrics(&registry);
  EXPECT_EQ(registry.counter_value("mpte_mpc_rounds_total"),
            cluster.stats().rounds());
  EXPECT_EQ(registry.counter_value("mpte_mpc_message_bytes_total"), 256u);
  EXPECT_EQ(
      registry.gauge_value("mpte_mpc_peak_local_bytes"),
      static_cast<double>(cluster.stats().peak_local_bytes()));
  // The human-readable summary renders from the same registry values.
  const std::string summary = cluster.stats().summary();
  EXPECT_NE(summary.find("rounds=2"), std::string::npos) << summary;
}

TEST(Exporters, ServeStatsLineAndMetricsAgree) {
  serve::ServiceStats stats;
  stats.submitted = 10;
  stats.completed = 9;
  stats.rejected_queue_full = 1;
  stats.rejected_deadline = 2;
  stats.qps = 123.45;
  stats.p50_ms = 1.5;
  stats.p99_ms = 8.0;
  stats.queue_depth = 4;

  Registry registry;
  serve::export_service_stats(stats, &registry);
  EXPECT_EQ(registry.counter_value("mpte_serve_completed_total"), 9u);
  EXPECT_EQ(registry.counter_value("mpte_serve_rejected_queue_full_total"),
            1u);
  EXPECT_EQ(registry.counter_value("mpte_serve_rejected_deadline_total"),
            2u);

  // The one-line `stats` response routes through the same exporter, so
  // the numbers cannot drift from the `metrics` exposition.
  const std::string line = serve::format_stats(stats);
  EXPECT_NE(line.find("completed=9"), std::string::npos) << line;
  EXPECT_NE(line.find("rejected=3"), std::string::npos) << line;
  EXPECT_NE(line.find("qps=123.5"), std::string::npos) << line;
  EXPECT_NE(line.find("depth=4"), std::string::npos) << line;

  // Every answer comes from evaluate(): no exported series names a cache.
  EmbedOptions options;
  options.use_fjlt = false;
  auto ensemble = EmbeddingEnsemble::build(
      generate_uniform_cube(16, 3, 10.0, 3), options, 2);
  ASSERT_TRUE(ensemble.ok()) << ensemble.status().to_string();
  serve::EmbeddingService service(std::move(ensemble).value());
  ASSERT_TRUE(service.submit(serve::Request::Distance(0, 1)).get().ok());
  Registry exported;
  service.export_metrics(&exported);
  ASSERT_FALSE(exported.samples().empty());
  for (const Sample& sample : exported.samples()) {
    EXPECT_EQ(sample.name.find("cache"), std::string::npos) << sample.name;
  }
}

// -------------------------------------------------------- profiling hooks

TEST(ProfilingHooks, AttributesEveryRoundAndForwardsToInner) {
  struct CountingHooks : mpc::ClusterHooks {
    std::size_t committed = 0;
    void round_committed(mpc::Cluster&, std::size_t) override {
      ++committed;
    }
  };
  CountingHooks inner;
  ProfilingHooks hooks(&inner);
  mpc::Cluster cluster(mpc::ClusterConfig{2, 1 << 16, true});
  cluster.set_hooks(&hooks);
  cluster.run_round([](mpc::MachineContext&) {}, "alpha");
  cluster.run_round([](mpc::MachineContext&) {}, "alpha");
  cluster.run_round([](mpc::MachineContext&) {}, "beta");

  EXPECT_EQ(inner.committed, 3u);
  EXPECT_EQ(hooks.totals().rounds, 3u);
  EXPECT_GE(hooks.totals().total_seconds(), 0.0);
  ASSERT_TRUE(hooks.by_label().contains("alpha"));
  EXPECT_EQ(hooks.by_label().at("alpha").rounds, 2u);
  EXPECT_EQ(hooks.by_label().at("beta").rounds, 1u);

  Registry registry;
  hooks.export_metrics(&registry);
  EXPECT_EQ(registry.counter_value("mpte_mpc_profile_rounds_total"), 3u);

  hooks.reset();
  EXPECT_EQ(hooks.totals().rounds, 0u);
  EXPECT_TRUE(hooks.by_label().empty());
}

// ------------------------------------------------- tracing is observation

std::uint64_t golden_fingerprint(std::size_t threads) {
  mpc::Cluster cluster(golden::golden_config(threads));
  const auto result = golden::golden_embed(cluster);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  if (!result.ok()) return 0;
  return golden::fingerprint(*result);
}

TEST(ObservationOnly, TracedEmbeddingIsByteIdenticalAtOneAndEightThreads) {
  // The golden embedding (golden.hpp): tracing must not perturb it.
  for (const std::size_t threads : {1u, 8u}) {
    Tracer::global().disable();
    EXPECT_EQ(golden_fingerprint(threads), golden::kGoldenHash)
        << "tracing off, threads=" << threads;

    Tracer::global().enable();
    EXPECT_EQ(golden_fingerprint(threads), golden::kGoldenHash)
        << "tracing on, threads=" << threads;
    Tracer::global().disable();

    // The traced run actually recorded the pipeline.
    const auto events = Tracer::global().snapshot();
    EXPECT_GT(events.size(), 10u) << "threads=" << threads;
    bool saw_pipeline = false, saw_round = false;
    for (const SpanEvent& event : events) {
      saw_pipeline |= event.name == "mpc_embed";
      saw_round |= event.category == "mpc";
    }
    EXPECT_TRUE(saw_pipeline);
    EXPECT_TRUE(saw_round);
  }
}

TEST(ObservationOnly, TracedSequentialEmbedIsByteIdenticalAndSplitsByStage) {
  // The auto-Δ golden embed(): tracing must not move a byte, and the run
  // splits into stage spans directly under one emb/embed root.
  Tracer::global().disable();
  const auto plain =
      embed(golden::golden_points(), golden::auto_delta_embed_options());
  ASSERT_TRUE(plain.ok()) << plain.status().to_string();
  Tracer::global().enable();
  const auto traced =
      embed(golden::golden_points(), golden::auto_delta_embed_options());
  Tracer::global().disable();
  ASSERT_TRUE(traced.ok()) << traced.status().to_string();
  EXPECT_EQ(golden::fingerprint(*plain), golden::kAutoDeltaMpcHash);
  EXPECT_EQ(golden::fingerprint(*traced), golden::kAutoDeltaMpcHash);

  const auto events = Tracer::global().snapshot();
  const SpanEvent* root = nullptr;
  for (const SpanEvent& event : events) {
    if (event.category == "emb" && event.name == "embed") root = &event;
  }
  ASSERT_NE(root, nullptr);
  std::map<std::string, int> children;
  for (const SpanEvent& event : events) {
    if (event.thread == root->thread && event.depth == root->depth + 1 &&
        event.start_us >= root->start_us &&
        event.start_us + event.duration_us <=
            root->start_us + root->duration_us) {
      ++children[event.category + "/" + event.name];
    }
  }
  EXPECT_EQ(children["emb/delta"], 1);
  EXPECT_EQ(children["emb/quantize"], 1);
  EXPECT_EQ(children["emb/partition-attempt"], 1);
  EXPECT_EQ(children["emb/assemble"], 1);
  EXPECT_EQ(children.count("fjlt/fjlt"), 0u);  // 8 dims: no FJLT

  // The FJLT stage gets its own span when the transform applies.
  Tracer::global().enable();
  EmbedOptions high;
  high.delta = 256;
  const auto reduced =
      embed(generate_uniform_cube(64, 256, 10.0, 3), high);
  Tracer::global().disable();
  ASSERT_TRUE(reduced.ok()) << reduced.status().to_string();
  ASSERT_TRUE(reduced->fjlt_applied);
  bool saw_fjlt = false;
  for (const SpanEvent& event : Tracer::global().snapshot()) {
    saw_fjlt |= event.category == "fjlt" && event.name == "fjlt";
  }
  EXPECT_TRUE(saw_fjlt);
}

TEST(ObservationOnly, DynInsertAndEraseRecordSpans) {
  dyn::DynamicEnsemble::Options options;
  options.trees = 2;
  options.member.seed = 5;
  auto ensemble = dyn::DynamicEnsemble::create(
      generate_uniform_cube(40, 3, 20.0, 5), options);
  ASSERT_TRUE(ensemble.ok()) << ensemble.status().to_string();
  Tracer::global().enable();
  const std::vector<double> coords = {1.0, 2.0, 3.0};
  const auto id = (*ensemble)->insert(coords);
  const Status erased =
      id.ok() ? (*ensemble)->erase(*id) : Status(id.status());
  Tracer::global().disable();
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  ASSERT_TRUE(erased.ok()) << erased.to_string();
  std::map<std::string, int> spans;
  for (const SpanEvent& event : Tracer::global().snapshot()) {
    ++spans[event.category + "/" + event.name];
  }
  EXPECT_EQ(spans["dyn/insert"], 1);
  EXPECT_EQ(spans["dyn/erase"], 1);
}

}  // namespace
}  // namespace mpte::obs
