#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/ensemble.hpp"
#include "core/mpc_embedder.hpp"
#include "dyn/dynamic_ensemble.hpp"
#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"
#include "mpc/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "stats.hpp"
#include "tree/distortion.hpp"
#include "tree/hst_io.hpp"
#include "tree/lca_index.hpp"

namespace perfbench {
namespace {

using namespace mpte;
using Clock = std::chrono::steady_clock;
using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint32_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return static_cast<std::uint32_t>(std::clamp<std::int64_t>(
      ns, 0, std::numeric_limits<std::uint32_t>::max()));
}

double peak_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Every input and request stream is a pure function of the benchmark seed
/// and one of these tags.
enum class Stream : std::uint64_t {
  kInput = 1,
  kEmbed,
  kPairs,
  kHotSet,
  kReads,
  kProbe,
};

std::uint64_t stream_seed(std::uint64_t seed, Stream stream,
                          std::uint64_t index = 0) {
  return hash_combine(
      hash_combine(mix64(seed), static_cast<std::uint64_t>(stream)), index);
}

constexpr std::size_t kMachines = 4;
constexpr std::size_t kTrees = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Pairs distortion_mean averages over.
constexpr std::size_t kDistortionPairs = 20000;
/// Trees per run distortion_mean averages over: one tree's coarse cuts
/// swing its mean by a fifth from seed to seed.
constexpr std::size_t kDistortionTrees = 3;
/// Client connections and lines per window of the read traffic.
constexpr std::size_t kReaders = 2;
constexpr std::size_t kWindow = 32;
/// Replies each reader keeps, a seeded uniform sample, for the oracle check.
constexpr std::size_t kSampledReplies = 2048;
/// Share of the machine's CPU time stolen by the hypervisor above which a
/// read segment or an mpc_embed call is left out of the medians. On a
/// shared virtual machine a cross-CPU wake-up waits until the host runs
/// the target vCPU, so a few per cent of steal slows the read path
/// several-fold: such a stretch measures the host, not the program.
constexpr double kMaxSteal = 0.02;

/// Collects one run's counts, metric values and notes.
class Recorder {
 public:
  void op(bool ok, const std::string& what) { ops(1, ok ? 0 : 1, what); }
  void ops(std::uint64_t attempted, std::uint64_t failed,
           const std::string& what) {
    report_.attempted += attempted;
    report_.failed += failed;
    if (failed > 0) {
      note("FAILED: " + std::to_string(failed) + " of " +
           std::to_string(attempted) + ": " + what);
    }
  }
  void note(std::string line) { report_.notes.push_back(std::move(line)); }
  void set(const std::string& name, double value) { values_[name] = value; }
  void set(const std::string& name, std::optional<double> value) {
    if (value) values_[name] = *value;
  }

  /// Emits `table` in order. A missing end-to-end metric is a failure; a
  /// missing per-layer metric is a layer this workload does not run.
  RunReport finish(const std::vector<Metric>& table, bool per_layer) {
    for (const Metric& m : table) {
      const auto it = values_.find(m.name);
      const bool measured = it != values_.end() && std::isfinite(it->second);
      if (it != values_.end() && !measured) op(false, m.name + " is not finite");
      if (!measured && !per_layer) {
        op(false, "no value for " + m.name);
        continue;
      }
      report_.metrics.push_back({m.name, m.unit, measured ? it->second : kAbsent});
    }
    return std::move(report_);
  }

 private:
  RunReport report_;
  std::map<std::string, double> values_;
};

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(
      64, static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale)));
}

/// Times kSetups set-ups, the first from process start, running the
/// untimed `after` behind each.
template <typename Setup, typename After>
void time_setups(const RunOptions& options, Recorder& rec, Setup&& setup,
                 After&& after) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = i == 0 ? options.started : Clock::now();
    setup(i);
    seconds.push_back(since(start));
    after();
  }
  rec.set("setup_s", median(seconds));
}

// ------------------------------------------------------------------ steal

/// The machine's CPU time from the aggregate line of /proc/stat, in
/// jiffies: all of it, and the part stolen (this guest's vCPUs wanted to
/// run while the hypervisor ran another).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

/// nullopt where /proc/stat cannot be read; then nothing counts as stolen.
std::optional<CpuTicks> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return std::nullopt;
  // user nice system idle iowait irq softirq steal; the guest columns
  // after them are already counted in user and nice.
  CpuTicks ticks;
  for (int column = 0; column < 8; ++column) {
    std::uint64_t value = 0;
    if (!(in >> value)) return std::nullopt;
    ticks.total += value;
    if (column == 7) ticks.steal = value;
  }
  return ticks;
}

/// Stolen share of the CPU time between two readings.
std::optional<double> steal_share(const std::optional<CpuTicks>& from,
                                  const std::optional<CpuTicks>& to) {
  if (!from || !to || to->total <= from->total) return std::nullopt;
  return static_cast<double>(to->steal - from->steal) /
         static_cast<double>(to->total - from->total);
}

bool stolen(const std::optional<double>& steal) {
  return steal && *steal > kMaxSteal;
}

/// Values measured over stretches of time, each with the stolen share of
/// its stretch.
struct Series {
  std::vector<double> values;
  std::vector<std::optional<double>> steal;

  void add(std::optional<double> value, std::optional<double> stolen_share) {
    if (!value) return;
    values.push_back(*value);
    steal.push_back(stolen_share);
  }
  /// Median over the stretches with at most kMaxSteal stolen or, when no
  /// stretch was that quiet, over the half with the least steal.
  std::optional<double> quiet_median() const {
    std::vector<bool> flagged;
    for (const auto& s : steal) flagged.push_back(stolen(s));
    if (std::find(flagged.begin(), flagged.end(), false) == flagged.end()) {
      std::vector<double> shares;
      for (const auto& s : steal) shares.push_back(*s);  // stolen() had them all
      const double cut = median(shares).value_or(0.0);
      for (std::size_t i = 0; i < steal.size(); ++i) flagged[i] = *steal[i] > cut;
    }
    return median_unflagged(values, flagged);
  }
  std::string steal_note(const std::string& what) const {
    std::size_t kept = 0;
    double least = 1.0, worst = -1.0;
    for (const auto& s : steal) {
      kept += stolen(s) ? 0 : 1;
      if (!s) continue;
      least = std::min(least, *s);
      worst = std::max(worst, *s);
    }
    if (worst < 0.0) {
      return what + ": CPU steal unknown, all " + std::to_string(values.size()) +
             " used";
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  kept > 0 ? "%s: %zu of %zu used (CPU steal <= %.0f%%); steal %.1f-%.1f%%"
                           : "%s: %zu of %zu had CPU steal <= %.0f%%, so the half "
                             "with the least is used; steal %.1f-%.1f%%",
                  what.c_str(), kept, values.size(), kMaxSteal * 100, least * 100,
                  worst * 100);
    return line;
  }
};

/// Mean of distance(p, q) / ||p - q|| over the pairs at nonzero distance.
template <typename Distance>
double mean_ratio(const PointSet& points, const Pairs& pairs,
                  Distance&& distance) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& [p, q] : pairs) {
    const double truth = l2_distance(points[p], points[q]);
    if (truth <= 0.0) continue;
    sum += distance(p, q) / truth;
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

/// Spans recorded since the tracer was enabled, or nullopt (and a failure)
/// when the ring overwrote any: partial sums would understate the layers.
std::optional<std::vector<SpanRecord>> collect_spans(Recorder& rec) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.disable();
  const std::uint64_t lost = tracer.overwritten();
  rec.set("obs.spans_overwritten", static_cast<double>(lost));
  rec.op(lost == 0, "trace ring overwrote " + std::to_string(lost) + " spans");
  if (lost != 0) return std::nullopt;
  std::vector<SpanRecord> spans;
  for (const obs::SpanEvent& e : tracer.snapshot()) {
    spans.push_back({e.category + "/" + e.name, e.thread, e.depth, e.start_us,
                     e.duration_us});
  }
  return spans;
}

/// Ring capacity for a traced phase of `seconds`: sizing saw ~8k serve/batch
/// spans a second, so 64k a second leaves ample headroom.
std::size_t trace_capacity(double seconds) {
  return std::max<std::size_t>(obs::Tracer::kDefaultCapacity,
                               static_cast<std::size_t>(seconds * 65536.0));
}

double lca_build_ms(const Hst& tree) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    const LcaIndex index(tree);
    ms.push_back(since(start) * 1e3);
  }
  return *median(ms);
}

void tree_layers(Recorder& rec, const Hst& tree) {
  rec.set("tree.nodes", static_cast<double>(tree.num_nodes()));
  rec.set("tree.depth", static_cast<double>(tree.depth()));
  rec.set("tree.lca_build_ms", lca_build_ms(tree));
}

/// Times recommended_delta at the default thread count and at one thread.
void delta_probe(Recorder& rec, const PointSet& points) {
  const auto time_call = [&] {
    const auto start = Clock::now();
    const std::uint64_t delta = recommended_delta(points, 0.05, 1ull << 20);
    const double took = since(start);
    rec.op(delta >= 2, "recommended_delta returned " + std::to_string(delta));
    return took;
  };
  const double parallel = time_call();
  par::set_default_threads(1);
  const double serial = time_call();
  par::set_default_threads(0);
  rec.set("geometry.recommended_delta_s", parallel);
  rec.set("geometry.recommended_delta_1t_s", serial);
  if (parallel > 0.0) rec.set("geometry.delta_speedup", serial / parallel);
}

// ------------------------------------------------------------ read traffic

/// One request of a reader's seeded stream, with its wire line.
struct Query {
  serve::Request request;
  std::string line;
};

/// Half the pairs come from a 64-point hot set, half are uniform; min and
/// exp alternate.
class QueryStream {
 public:
  QueryStream(std::size_t n, const std::vector<std::uint32_t>& hot,
              std::uint64_t seed)
      : n_(n), hot_(hot), rng_(seed) {}

  Query next() {
    const bool exp = count_++ % 2 == 1;
    const bool hot = rng_.uniform_u64(2) == 0;
    const auto pick = [&]() -> std::size_t {
      return hot ? hot_[rng_.uniform_u64(hot_.size())] : rng_.uniform_u64(n_);
    };
    const std::size_t p = pick();
    const std::size_t q = pick();
    return {serve::Request::Distance(
                p, q, exp ? serve::Combiner::kExpected : serve::Combiner::kMin),
            "dist " + std::to_string(p) + " " + std::to_string(q) +
                (exp ? " exp" : " min")};
  }

 private:
  std::size_t n_;
  const std::vector<std::uint32_t>& hot_;
  Rng rng_;
  std::uint64_t count_ = 0;
};

std::vector<std::uint32_t> hot_set(std::uint64_t seed, std::size_t n) {
  Rng rng(stream_seed(seed, Stream::kHotSet));
  std::vector<std::uint32_t> hot;
  for (int i = 0; i < 64; ++i) {
    hot.push_back(static_cast<std::uint32_t>(rng.uniform_u64(n)));
  }
  return hot;
}

/// A service behind the in-process loopback server, with connected clients.
struct ServeRig {
  PointSet points;
  std::vector<std::uint32_t> hot;
  std::uint64_t embed_seed = 0;
  double build_seconds = 0.0;
  std::unique_ptr<serve::EmbeddingService> service;
  std::unique_ptr<serve::SocketServer> server;
  std::vector<std::unique_ptr<serve::LineClient>> clients;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() {
    clients.clear();
    if (server) server->stop();
    server.reset();
    service.reset();
  }
};

[[noreturn]] void fail_setup(const std::string& what, const Status& status) {
  throw std::runtime_error(what + ": " + status.to_string());
}

/// Starts the server in front of rig.service and connects the readers.
void start_server(ServeRig& rig) {
  rig.server = std::make_unique<serve::SocketServer>(*rig.service);
  const auto port = rig.server->start();
  if (!port.ok()) fail_setup("SocketServer::start", port.status());
  for (std::size_t c = 0; c < kReaders; ++c) {
    auto client = std::make_unique<serve::LineClient>();
    const Status connected = client->connect("127.0.0.1", *port);
    if (!connected.ok()) fail_setup("connect", connected);
    rig.clients.push_back(std::move(client));
  }
}

/// A reply kept for the after-phase oracle check.
struct Sampled {
  serve::Request request;
  std::string reply;
};

/// Cuts a read phase into segments of a second (one segment when the phase
/// is shorter) and says when it ends: after its planned segments or, while
/// fewer than half as many were free of CPU steal, after up to twice as
/// many, so that a burst of steal is waited out.
class ReadClock {
 public:
  explicit ReadClock(double seconds)
      : segment_(std::min(1.0, seconds)),
        planned_(std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds / segment_ + 1e-9))),
        origin_(Clock::now()) {}

  std::size_t most_segments() const { return 2 * planned_; }
  double segment_seconds() const { return segment_; }
  std::size_t segment_at(Clock::time_point t) const {
    return static_cast<std::size_t>(
        std::chrono::duration<double>(t - origin_).count() / segment_);
  }
  bool running() const { return !stopped_.load(std::memory_order_relaxed); }

  /// Reads the steal counter at each segment boundary until the phase
  /// ends. Runs on one thread while the readers run.
  void watch() {
    std::optional<CpuTicks> ticks = cpu_ticks();
    std::size_t quiet = 0;
    for (std::size_t k = 1;; ++k) {
      std::this_thread::sleep_until(
          origin_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(segment_ * k)));
      const std::optional<CpuTicks> now = cpu_ticks();
      steal_.push_back(steal_share(ticks, now));
      ticks = now;
      quiet += stolen(steal_.back()) ? 0 : 1;
      if (k >= planned_ && (2 * quiet >= planned_ || k >= most_segments())) break;
    }
    stopped_.store(true, std::memory_order_relaxed);
  }
  /// Stolen share of each segment the phase counts.
  const std::vector<std::optional<double>>& steal() const { return steal_; }

 private:
  double segment_;
  std::size_t planned_;
  Clock::time_point origin_;
  std::atomic<bool> stopped_{false};
  std::vector<std::optional<double>> steal_;
};

/// One reader's replies within one segment of the phase.
struct SegmentTally {
  std::uint64_t replies = 0;
  std::optional<double> p50_ms, p90_ms, p99_ms;
};

struct ClientTally {
  std::vector<SegmentTally> segments;  // indexed by segment
  std::vector<Sampled> sampled;
  std::uint64_t sent = 0;
  std::uint64_t errors = 0;
  std::string first_error;
};

/// Closed-loop reader: writes a window of lines, then reads its replies.
/// Latency runs from writing the window to reading each reply. Only the
/// current segment's latencies are held, and folded into its percentiles
/// when it closes, so the reader's memory does not grow with the reply
/// rate. A seeded reservoir keeps kSampledReplies replies for the oracle.
void reader_loop(serve::LineClient& client, QueryStream stream,
                 const ReadClock& clock, std::uint64_t sample_seed,
                 ClientTally& tally) {
  std::vector<Query> queries(kWindow);
  std::string batch;
  std::vector<std::uint32_t> latency_ns;
  latency_ns.reserve(1 << 18);
  tally.segments.reserve(clock.most_segments() + 2);
  tally.sampled.reserve(kSampledReplies);
  std::size_t segment = 0;
  const auto close_segment = [&] {
    if (tally.segments.size() <= segment) tally.segments.resize(segment + 1);
    SegmentTally& closed = tally.segments[segment];
    closed.replies = latency_ns.size();
    const auto ms = [&](double q) -> std::optional<double> {
      const auto ns = percentile(latency_ns, q);
      return ns ? std::optional<double>(*ns * 1e-6) : std::nullopt;
    };
    closed.p50_ms = ms(50);
    closed.p90_ms = ms(90);
    closed.p99_ms = ms(99);
    latency_ns.clear();
  };
  std::uint64_t index = 0;
  while (clock.running()) {
    batch.clear();
    for (Query& q : queries) {
      q = stream.next();
      batch += q.line;
      batch += '\n';
    }
    batch.pop_back();  // send_line appends the last newline
    const auto start = Clock::now();
    tally.sent += kWindow;
    if (!client.send_line(batch).ok()) {
      tally.errors += kWindow;
      break;
    }
    for (const Query& q : queries) {
      auto reply = client.read_line();
      const auto now = Clock::now();
      if (!reply.ok()) {
        // The window's remaining replies are lost with the connection.
        tally.errors += kWindow - (&q - queries.data());
        tally.first_error = reply.status().to_string();
        close_segment();
        return;
      }
      if (const std::size_t at = clock.segment_at(now); at != segment) {
        close_segment();
        segment = at;
      }
      latency_ns.push_back(elapsed_ns(start, now));
      if (!serve::is_ok_line(*reply)) {
        if (tally.errors++ == 0) tally.first_error = *reply;
      }
      // Reservoir sampling: every reply so far is equally likely kept.
      const std::uint64_t slot =
          index < kSampledReplies ? index : mix64(sample_seed ^ index) % (index + 1);
      ++index;
      if (slot < tally.sampled.size()) {
        tally.sampled[slot] = {q.request, std::move(*reply)};
      } else if (slot < kSampledReplies) {
        tally.sampled.push_back({q.request, std::move(*reply)});
      }
    }
  }
  close_segment();
}

/// A read phase's figures. qps, p50, p90 and p99 are each the median over
/// the phase's segments that CPU steal left alone (see Series): a burst of
/// outside contention in a few of them then does not move the run.
struct ServePhase {
  std::optional<double> qps, p50_ms, p90_ms, p99_ms;
  /// Peak resident set when the readers stopped.
  double peak_rss_mb = 0.0;
  std::vector<Sampled> sampled;
  std::string steal_note;
};

ServePhase serve_phase(ServeRig& rig, std::uint64_t seed, std::uint64_t phase_index,
                       double seconds, Recorder& rec) {
  ReadClock clock(seconds);
  std::vector<ClientTally> tallies(rig.clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < rig.clients.size(); ++c) {
    const std::uint64_t stream = phase_index * 16 + c;
    threads.emplace_back(
        reader_loop, std::ref(*rig.clients[c]),
        QueryStream(rig.points.size(), rig.hot,
                    stream_seed(seed, Stream::kReads, stream)),
        std::cref(clock), stream_seed(seed, Stream::kProbe, stream),
        std::ref(tallies[c]));
  }
  clock.watch();
  for (std::thread& t : threads) t.join();

  ServePhase phase;
  phase.peak_rss_mb = peak_rss_mb(RUSAGE_SELF);
  // The segments still open when the phase ended are not counted.
  Series qps, p50, p90, p99;
  for (std::size_t s = 0; s < clock.steal().size(); ++s) {
    const std::optional<double> steal = clock.steal()[s];
    std::uint64_t replies = 0;
    for (const ClientTally& tally : tallies) {
      if (s >= tally.segments.size()) continue;
      const SegmentTally& segment = tally.segments[s];
      replies += segment.replies;
      p50.add(segment.p50_ms, steal);
      p90.add(segment.p90_ms, steal);
      p99.add(segment.p99_ms, steal);
    }
    qps.add(static_cast<double>(replies) / clock.segment_seconds(), steal);
  }
  phase.qps = qps.quiet_median();
  phase.p50_ms = p50.quiet_median();
  phase.p90_ms = p90.quiet_median();
  phase.p99_ms = p99.quiet_median();
  phase.steal_note = qps.steal_note("read segments");
  for (ClientTally& tally : tallies) {
    std::move(tally.sampled.begin(), tally.sampled.end(),
              std::back_inserter(phase.sampled));
    rec.ops(tally.sent, tally.errors, "reads (first: " + tally.first_error + ")");
  }
  return phase;
}

/// Replies must equal format_response(evaluate(request)) byte for byte.
void check_replies(const serve::EmbeddingService& service,
                   const std::vector<Sampled>& sampled, Recorder& rec) {
  std::uint64_t mismatches = 0;
  std::string first;
  for (const Sampled& s : sampled) {
    const std::string expected = serve::format_response(service.evaluate(s.request));
    if (expected != s.reply && mismatches++ == 0) first = s.reply + " != " + expected;
  }
  rec.ops(sampled.size(), mismatches,
          "sampled replies differ from the oracle (first: " + first + ")");
}

void report_reads(Recorder& rec, const ServePhase& phase) {
  rec.set("qps", phase.qps);
  rec.set("p50_ms", phase.p50_ms);
  rec.set("p90_ms", phase.p90_ms);
  rec.set("peak_rss_mb", phase.peak_rss_mb);
  rec.note(phase.steal_note);
}

std::map<std::string, double> serve_counters(const serve::EmbeddingService& service) {
  obs::Registry registry;
  service.export_metrics(&registry);
  std::map<std::string, double> values;
  for (const obs::Sample& s : registry.samples()) {
    if (s.labels.empty()) values[s.name] = s.value;
  }
  return values;
}

void serve_layers(const ServePhase& phase, const std::vector<SpanRecord>& spans,
                  const std::map<std::string, double>& before,
                  const std::map<std::string, double>& after, Recorder& rec) {
  const auto delta = [&](const char* name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  };
  const double batches = delta("mpte_serve_batches_total");
  rec.set("serve.batches", batches);
  if (batches > 0) {
    rec.set("serve.mean_batch",
            (delta("mpte_serve_completed_total") + delta("mpte_serve_failed_total")) /
                batches);
  }
  const double hits = delta("mpte_serve_cache_hits_total");
  const double lookups = hits + delta("mpte_serve_cache_misses_total");
  if (lookups > 0) rec.set("serve.cache_hit_rate", hits / lookups);
  rec.set("serve.cache_evictions", delta("mpte_serve_cache_evictions_total"));
  rec.set("serve.rejected", delta("mpte_serve_rejected_queue_full_total") +
                                delta("mpte_serve_rejected_deadline_total"));
  rec.set("serve.batch_busy_s", span_total(spans, "serve/batch").seconds);
  rec.set("serve.p99_ms", phase.p99_ms);
}

/// Direct calls, without queue, cache or wire: evaluate, one submit_batch
/// window, and the wire codec, each per request.
void serve_probes(ServeRig& rig, std::uint64_t seed, Recorder& rec) {
  const serve::EmbeddingService& service = *rig.service;
  QueryStream stream(rig.points.size(), rig.hot, stream_seed(seed, Stream::kProbe));
  std::vector<Query> queries;
  for (int i = 0; i < 8192; ++i) queries.push_back(stream.next());
  const auto per_request_us = [](Clock::time_point start, std::size_t count) {
    return since(start) * 1e6 / static_cast<double>(count);
  };
  std::uint64_t errors = 0;

  auto start = Clock::now();
  for (const Query& q : queries) errors += service.evaluate(q.request).ok() ? 0 : 1;
  rec.set("serve.evaluate_dist_us", per_request_us(start, queries.size()));
  const std::size_t knn = 256;
  start = Clock::now();
  for (std::size_t i = 0; i < knn; ++i) {
    errors += service.evaluate(serve::Request::Knn(queries[i].request.p, 8)).ok() ? 0 : 1;
  }
  rec.set("serve.evaluate_knn_us", per_request_us(start, knn));

  std::vector<serve::Request> window;
  start = Clock::now();
  for (std::size_t at = 0; at < queries.size(); at += kWindow) {
    window.clear();
    for (std::size_t i = at; i < at + kWindow; ++i) window.push_back(queries[i].request);
    for (auto& future : rig.service->submit_batch(window)) {
      errors += future.get().ok() ? 0 : 1;
    }
  }
  rec.set("serve.submit_window_us", per_request_us(start, queries.size()));

  std::vector<serve::Response> responses;
  for (const Query& q : queries) responses.push_back(*service.evaluate(q.request));
  std::size_t bytes = 0;
  start = Clock::now();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto parsed = serve::parse_request(queries[i].line);
    errors += parsed.ok() ? 0 : 1;
    bytes += serve::format_response(responses[i]).size();
  }
  rec.set("serve.wire_us", per_request_us(start, queries.size()));
  rec.ops(3 * queries.size() + knn, errors, "direct serve calls");
  if (bytes == 0) rec.op(false, "the wire probe formatted nothing");
}

// ------------------------------------------------------------------ mpc-*

struct MpcSpec {
  std::size_t n = 0;
  std::size_t dim = 0;
  mpc::Backend backend = mpc::Backend::kInProcess;
  /// 0 = derive Delta from the input (recommended_delta).
  std::uint64_t delta = 0;
};

/// The cluster `mpte_cli embed ... mpc` builds, at M = 4.
mpc::ClusterConfig cluster_config(const PointSet& points, mpc::Backend backend) {
  mpc::ClusterConfig config;
  config.num_machines = kMachines;
  const std::size_t input_bytes =
      points.size() * std::max<std::size_t>(points.dim(), 1) * sizeof(double);
  config.local_memory_bytes = std::max<std::size_t>(1 << 22, 4 * input_bytes);
  config.backend = backend;
  return config;
}

/// What one timed phase of mpc_embed calls measured.
struct MpcPhase {
  /// Wall time of each call that succeeded, with the call's CPU steal.
  Series embed_seconds;
  std::optional<double> distortion_mean;
  std::size_t rounds = 0;
  /// The last call's embedding and the seed that built it.
  std::optional<MpcEmbedding> result;
  std::uint64_t result_seed = 0;
  /// Per-call sums of the unlabeled registry series export_metrics wrote.
  std::map<std::string, double> series;
};

/// Calls mpc_embed on a fresh cluster until `seconds` have passed and
/// kDistortionTrees calls succeeded, so a slower build still averages the
/// same trees; each call has the next embedding seed, and each tree is
/// checked.
MpcPhase mpc_phase(const PointSet& points, const Pairs& pairs,
                   const mpc::ClusterConfig& config, MpcEmbedOptions options,
                   std::uint64_t seed, double seconds, obs::ProfilingHooks* hooks,
                   Recorder& rec) {
  MpcPhase phase;
  std::vector<double> tree_means;
  const auto start = Clock::now();
  for (std::size_t call = 0;
       tree_means.size() < kDistortionTrees || since(start) < seconds; ++call) {
    options.seed = stream_seed(seed, Stream::kEmbed, call);
    std::optional<MpcEmbedding> result;
    std::string error;
    obs::Registry registry;
    try {
      const std::optional<CpuTicks> ticks = cpu_ticks();
      const auto t0 = Clock::now();
      mpc::Cluster cluster(config);
      cluster.set_hooks(hooks);
      auto embedded = mpc_embed(cluster, points, options);
      const double took = since(t0);
      const std::optional<double> steal = steal_share(ticks, cpu_ticks());
      cluster.stats().export_metrics(&registry);
      if (const auto* executor = cluster.round_executor()) {
        executor->export_metrics(registry);
      }
      if (embedded.ok()) {
        phase.embed_seconds.add(took, steal);
        result = std::move(embedded).value();
      } else {
        error = embedded.status().to_string();
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    rec.op(result.has_value(), "mpc_embed: " + error);
    if (!result) {
      if (since(start) >= seconds) break;
      continue;
    }
    for (const obs::Sample& s : registry.samples()) {
      if (s.labels.empty()) phase.series[s.name] += s.value;
    }
    const Status valid = result->tree.validate();
    rec.op(valid.ok() && result->tree.num_points() == points.size(),
           "tree check: " + valid.to_string() + ", " +
               std::to_string(result->tree.num_points()) + " leaves for " +
               std::to_string(points.size()) + " points");
    if (tree_means.size() < kDistortionTrees) {
      tree_means.push_back(mean_ratio(points, pairs, [&](auto p, auto q) {
        return result->distance(p, q);
      }));
    }
    phase.rounds += result->rounds_used;
    phase.result = std::move(result);
    phase.result_seed = options.seed;
  }
  if (!tree_means.empty()) {
    double sum = 0.0;
    for (const double mean : tree_means) sum += mean;
    phase.distortion_mean = sum / static_cast<double>(tree_means.size());
  }
  return phase;
}

void mpc_layers(Recorder& rec, const MpcPhase& phase,
                const std::vector<SpanRecord>& spans,
                const obs::ProfilingHooks& hooks) {
  const double calls = static_cast<double>(phase.embed_seconds.values.size());
  if (calls == 0) return;
  const auto per_call = [&](const std::string& metric, const std::string& span) {
    const SpanTotal total = span_total(spans, span);
    if (total.count > 0) rec.set(metric, total.seconds / calls);
  };
  per_call("core.mpc_embed_s", "emb/mpc_embed");
  rec.set("core.unattributed_frac", unattributed_frac(spans, "emb/mpc_embed"));
  per_call("geometry.quantize_s", "emb/quantize");
  per_call("transform.mpc_fjlt_s", "fjlt/mpc_fjlt");
  per_call("partition.attempt_s", "emb/partition-attempt");
  rec.set("partition.attempts",
          static_cast<double>(span_total(spans, "emb/partition-attempt").count) /
              calls);
  per_call("tree.assemble_s", "emb/assemble");
  per_call("mpc.scatter_s", "emb/scatter");
  per_call("mpc.dedup_edges_s", "emb/dedup-edges");
  double round_seconds = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.name.rfind("mpc/round", 0) == 0) {
      round_seconds += static_cast<double>(s.duration_us) * 1e-6;
    }
  }
  rec.set("mpc.round_s", round_seconds / calls);
  rec.set("mpc.rounds", static_cast<double>(phase.rounds) / calls);
  const auto& t = hooks.totals();
  rec.set("mpc.compute_s", t.compute_seconds / calls);
  rec.set("mpc.audit_s", t.audit_seconds / calls);
  rec.set("mpc.deliver_s", t.deliver_seconds / calls);

  const auto series = [&](const char* name) {
    const auto it = phase.series.find(name);
    return it == phase.series.end() ? 0.0 : it->second / calls;
  };
  rec.set("mpc.message_bytes", series("mpte_mpc_message_bytes_total"));
  rec.set("mpc.peak_local_bytes", series("mpte_mpc_peak_local_bytes"));
  rec.set("mpc.violations", series("mpte_mpc_violations_total"));
  rec.op(series("mpte_mpc_violations_total") == 0.0, "MPC model violations");
  // The transport counters exist only where a multi-process round ran.
  if (phase.series.count("mpte_ipc_rounds_total") != 0) {
    rec.set("ipc.barrier_s", series("mpte_ipc_barrier_seconds"));
    rec.set("ipc.apply_s", series("mpte_ipc_apply_seconds"));
    rec.set("ipc.shm_bytes", series("mpte_ipc_shm_bytes_total"));
    rec.set("ipc.store_delta_bytes", series("mpte_ipc_store_delta_bytes_total"));
    rec.set("ipc.store_patch_bytes", series("mpte_ipc_store_patch_bytes_total"));
    rec.set("ipc.ring_full_waits", series("mpte_ipc_ring_full_waits_total"));
    rec.set("ipc.fallback_frames", series("mpte_ipc_fallback_frames_total"));
    rec.set("ipc.workers_respawned", series("mpte_ipc_workers_respawned_total"));
    rec.set("ipc.store_resyncs", series("mpte_ipc_store_resyncs_total"));
    rec.set("ipc.worker_peak_rss_mb", peak_rss_mb(RUSAGE_CHILDREN));
  }
  if (phase.result) tree_layers(rec, phase.result->tree);
}

/// The query side of build-once/query-many: the last tree built is served
/// as a one-member ensemble behind the same server and read traffic as
/// serve-read, for the run's length. (Reads of it in process depend
/// on the tree's shape, so their rate moves by a third from seed to seed;
/// through the server the serve layer's cost dominates.)
void serve_mpc_tree(const RunOptions& options, PointSet points,
                    MpcEmbedding result, Recorder& rec) {
  ServeRig rig;
  rig.points = std::move(points);
  rig.hot = hot_set(options.seed, rig.points.size());
  std::vector<Embedding> members;
  members.push_back(Embedding{std::move(result.tree),
                              std::move(result.embedded_points),
                              result.scale_to_input, result.delta_used,
                              result.buckets_used, result.grids_used,
                              result.dim_used, result.fjlt_applied,
                              result.retries_used, {}});
  auto ensemble = EmbeddingEnsemble::from_members(std::move(members));
  if (!ensemble.ok()) fail_setup("EmbeddingEnsemble::from_members", ensemble.status());
  rig.service = std::make_unique<serve::EmbeddingService>(std::move(ensemble).value());
  start_server(rig);
  const ServePhase phase = serve_phase(rig, options.seed, 0, options.seconds, rec);
  check_replies(*rig.service, phase.sampled, rec);
  report_reads(rec, phase);
}

void run_mpc(const RunOptions& options, const MpcSpec& spec, Recorder& rec) {
  PointSet points;
  Pairs pairs;
  time_setups(
      options, rec,
      [&](int) {
        points = generate_gaussian_clusters(spec.n, spec.dim, 8, 100.0, 1.0,
                                            stream_seed(options.seed, Stream::kInput));
        pairs = sample_pairs(points.size(), kDistortionPairs,
                             stream_seed(options.seed, Stream::kPairs));
      },
      [] {});
  MpcEmbedOptions embed_options;
  embed_options.delta = spec.delta;
  const mpc::ClusterConfig config = cluster_config(points, spec.backend);

  MpcPhase untraced = mpc_phase(points, pairs, config, embed_options, options.seed,
                                options.seconds, nullptr, rec);
  rec.note(untraced.embed_seconds.steal_note("mpc_embed calls"));
  if (!options.trace) {
    rec.set("embed_s", untraced.embed_seconds.quiet_median());
    rec.set("distortion_mean", untraced.distortion_mean);
    if (untraced.result) {
      serve_mpc_tree(options, std::move(points), std::move(*untraced.result), rec);
    }
    return;
  }

  obs::ProfilingHooks hooks;
  obs::Tracer::global().enable(trace_capacity(options.seconds));
  const MpcPhase traced = mpc_phase(points, pairs, config, embed_options,
                                    options.seed, options.seconds, &hooks, rec);
  if (const auto spans = collect_spans(rec)) mpc_layers(rec, traced, *spans, hooks);
  const auto u = untraced.embed_seconds.quiet_median();
  const auto t = traced.embed_seconds.quiet_median();
  if (u && t && *u > 0.0) {
    rec.set("obs.trace_overhead_frac", *t / *u - 1.0);
    rec.note("embed_s traced " + std::to_string(*t) + " s, untraced " +
             std::to_string(*u) + " s");
  }
  if (spec.delta == 0) delta_probe(rec, points);
  if (spec.backend == mpc::Backend::kMultiProcess && traced.result) {
    // The process backend must build the tree the in-process one does.
    mpc::Cluster cluster(cluster_config(points, mpc::Backend::kInProcess));
    embed_options.seed = traced.result_seed;
    const auto inproc = mpc_embed(cluster, points, embed_options);
    rec.op(inproc.ok() && fnv1a64(hst_to_bytes(inproc->tree)) ==
                              fnv1a64(hst_to_bytes(traced.result->tree)),
           "proc and inproc backends built different trees");
  }
}

// ------------------------------------------------------------- serve-read

/// Set-up `index` builds its ensemble from its own embedding seed.
std::unique_ptr<ServeRig> serve_setup(std::size_t n, std::uint64_t seed, int index) {
  auto rig = std::make_unique<ServeRig>();
  rig->points = generate_gaussian_clusters(n, 16, 8, 100.0, 1.0,
                                           stream_seed(seed, Stream::kInput));
  rig->hot = hot_set(seed, n);
  rig->embed_seed = stream_seed(seed, Stream::kEmbed, index);
  EmbedOptions embed_options;
  embed_options.seed = rig->embed_seed;
  const auto build_start = Clock::now();
  auto built = EmbeddingEnsemble::build(rig->points, embed_options, kTrees);
  if (!built.ok()) fail_setup("EmbeddingEnsemble::build", built.status());
  rig->build_seconds = since(build_start);
  rig->service = std::make_unique<serve::EmbeddingService>(std::move(built).value());
  start_server(*rig);
  return rig;
}

/// The dyn layer, timed by direct calls on the serve-read input: create,
/// then insert+erase pairs with a publish after every tenth. Inserted
/// points are midpoints of input pairs, inside the pinned frame, and every
/// one is erased again, so the last epoch must match the first byte for
/// byte (the dyncheck contract).
void dyn_probe(const ServeRig& rig, Recorder& rec) {
  dyn::DynamicEnsemble::Options options;
  options.trees = kTrees;
  options.member.seed = rig.embed_seed;
  auto start = Clock::now();
  auto created = dyn::DynamicEnsemble::create(rig.points, options);
  rec.set("dyn.create_s", since(start));
  rec.op(created.ok(), "DynamicEnsemble::create: " + created.status().to_string());
  if (!created.ok()) return;
  dyn::DynamicEnsemble& ensemble = **created;
  const auto prints = [](const dyn::EnsembleEpoch& epoch) {
    std::vector<std::uint64_t> out;
    for (std::size_t t = 0; t < epoch.ensemble->size(); ++t) {
      out.push_back(fnv1a64(hst_to_bytes(epoch.ensemble->member(t).tree)));
    }
    return out;
  };
  const auto first = prints(*ensemble.current());
  const dyn::DynStats before = ensemble.stats();

  constexpr std::size_t kPairs = 100, kPerPublish = 10;
  Rng rng(stream_seed(rig.embed_seed, Stream::kProbe));
  const std::size_t n = rig.points.size(), dim = rig.points.dim();
  std::vector<double> midpoint(dim);
  double update_seconds = 0.0, publish_seconds = 0.0;
  std::uint64_t errors = 0;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto a = rig.points[rng.uniform_u64(n)];
    const auto b = rig.points[rng.uniform_u64(n)];
    for (std::size_t j = 0; j < dim; ++j) midpoint[j] = (a[j] + b[j]) / 2;
    start = Clock::now();
    const auto id = ensemble.insert(midpoint);
    if (!id.ok() || !ensemble.erase(*id).ok()) ++errors;
    update_seconds += since(start);
    if ((i + 1) % kPerPublish == 0) {
      start = Clock::now();
      errors += ensemble.publish().ok() ? 0 : 1;
      publish_seconds += since(start);
    }
  }
  rec.ops(kPairs + kPairs / kPerPublish, errors, "direct dyn updates");
  rec.set("dyn.insert_us", update_seconds * 1e6 / kPairs);
  rec.set("dyn.publish_ms", publish_seconds * 1e3 / (kPairs / kPerPublish));
  const dyn::DynStats after = ensemble.stats();
  if (after.updates_applied > before.updates_applied) {
    rec.set("dyn.nodes_reembedded_per_update",
            static_cast<double>(after.nodes_reembedded - before.nodes_reembedded) /
                static_cast<double>(after.updates_applied - before.updates_applied));
  }
  rec.op(prints(*ensemble.current()) == first,
         "the epoch after insert+erase differs from the created one");
}

void run_serve(const RunOptions& options, std::size_t n, Recorder& rec) {
  std::unique_ptr<ServeRig> rig;
  std::vector<double> builds;
  // Each set-up's ensemble has its own seed, so distortion_mean averages
  // over setups x T trees.
  const Pairs pairs =
      sample_pairs(n, kDistortionPairs, stream_seed(options.seed, Stream::kPairs));
  double distortion_sum = 0.0;
  time_setups(
      options, rec,
      [&](int index) {
        rig.reset();  // tear the previous set-up down before the next
        rig = serve_setup(n, options.seed, index);
        builds.push_back(rig->build_seconds);
      },
      [&] {
        const EmbeddingEnsemble& ensemble = rig->service->ensemble();
        distortion_sum += mean_ratio(rig->points, pairs, [&](auto p, auto q) {
          return ensemble.min_distance(p, q);
        });
      });
  rec.set("embed_s", median(builds));
  rec.set("core.ensemble_build_s", median(builds));
  rec.set("distortion_mean", distortion_sum / static_cast<double>(builds.size()));

  const ServePhase untraced = serve_phase(*rig, options.seed, 0, options.seconds, rec);
  check_replies(*rig->service, untraced.sampled, rec);
  if (!options.trace) {
    report_reads(rec, untraced);
    return;
  }
  const auto before = serve_counters(*rig->service);
  obs::Tracer::global().enable(trace_capacity(options.seconds));
  const ServePhase traced = serve_phase(*rig, options.seed, 1, options.seconds, rec);
  const auto after = serve_counters(*rig->service);
  if (const auto spans = collect_spans(rec)) {
    serve_layers(traced, *spans, before, after, rec);
  }
  check_replies(*rig->service, traced.sampled, rec);
  rec.note("untraced " + untraced.steal_note);
  rec.note("traced " + traced.steal_note);
  if (untraced.qps && traced.qps && *traced.qps > 0.0) {
    rec.set("obs.trace_overhead_frac", *untraced.qps / *traced.qps - 1.0);
    rec.note("qps traced " + std::to_string(*traced.qps) + ", untraced " +
             std::to_string(*untraced.qps));
  }
  tree_layers(rec, rig->service->ensemble().member(0).tree);
  serve_probes(*rig, options.seed, rec);
  delta_probe(rec, rig->points);
  dyn_probe(*rig, rec);
}

}  // namespace

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics = {
      {"setup_s", "s"},      {"embed_s", "s"}, {"distortion_mean", "ratio"},
      {"qps", "1/s"},        {"p50_ms", "ms"}, {"p90_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = {
      {"geometry.recommended_delta_s", "s"},
      {"geometry.recommended_delta_1t_s", "s"},
      {"geometry.delta_speedup", "ratio"},
      {"geometry.quantize_s", "s"},
      {"core.mpc_embed_s", "s"},
      {"core.unattributed_frac", "fraction"},
      {"core.ensemble_build_s", "s"},
      {"transform.mpc_fjlt_s", "s"},
      {"partition.attempt_s", "s"},
      {"partition.attempts", "count"},
      {"tree.assemble_s", "s"},
      {"tree.nodes", "count"},
      {"tree.depth", "count"},
      {"tree.lca_build_ms", "ms"},
      {"mpc.rounds", "count"},
      {"mpc.round_s", "s"},
      {"mpc.compute_s", "s"},
      {"mpc.audit_s", "s"},
      {"mpc.deliver_s", "s"},
      {"mpc.scatter_s", "s"},
      {"mpc.dedup_edges_s", "s"},
      {"mpc.message_bytes", "bytes"},
      {"mpc.peak_local_bytes", "bytes"},
      {"mpc.violations", "count"},
      {"ipc.barrier_s", "s"},
      {"ipc.apply_s", "s"},
      {"ipc.shm_bytes", "bytes"},
      {"ipc.store_delta_bytes", "bytes"},
      {"ipc.store_patch_bytes", "bytes"},
      {"ipc.ring_full_waits", "count"},
      {"ipc.fallback_frames", "count"},
      {"ipc.workers_respawned", "count"},
      {"ipc.store_resyncs", "count"},
      {"ipc.worker_peak_rss_mb", "MB"},
      {"serve.batches", "count"},
      {"serve.mean_batch", "count"},
      {"serve.cache_hit_rate", "fraction"},
      {"serve.cache_evictions", "count"},
      {"serve.rejected", "count"},
      {"serve.batch_busy_s", "s"},
      {"serve.evaluate_dist_us", "us"},
      {"serve.evaluate_knn_us", "us"},
      {"serve.submit_window_us", "us"},
      {"serve.wire_us", "us"},
      {"serve.p99_ms", "ms"},
      {"dyn.create_s", "s"},
      {"dyn.publish_ms", "ms"},
      {"dyn.insert_us", "us"},
      {"dyn.nodes_reembedded_per_update", "count"},
      {"obs.trace_overhead_frac", "fraction"},
      {"obs.spans_overwritten", "count"},
  };
  return metrics;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mpc-auto", "mpc-fjlt-proc",
                                                 "serve-read"};
  return names;
}

RunReport run_workload(const RunOptions& options) {
  const double s = options.scale;
  Recorder rec;
  try {
    if (options.workload == "mpc-auto") {
      run_mpc(options, {scaled(40000, s), 16, mpc::Backend::kInProcess, 0}, rec);
    } else if (options.workload == "mpc-fjlt-proc") {
      run_mpc(options, {scaled(16000, s), 512, mpc::Backend::kMultiProcess, 4096},
              rec);
    } else if (options.workload == "serve-read") {
      run_serve(options, scaled(20000, s), rec);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception& e) {
    rec.op(false, e.what());
  }
  return rec.finish(options.trace ? per_layer_metrics() : end_to_end_metrics(),
                    options.trace);
}

}  // namespace perfbench
