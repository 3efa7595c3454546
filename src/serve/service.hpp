// EmbeddingService — the long-lived, thread-safe query tier.
//
// One embedding build is amortized over millions of queries (the whole
// point of Corollary 1), so the serving half of the system is: an
// EmbeddingEnsemble with per-member LcaIndexes, fronted by
//
//  * a request batcher: submit() enqueues and returns a future; a
//    dedicated batcher thread drains up to max_batch requests per wakeup
//    (waiting at most max_wait for a batch to fill) and evaluates them
//    concurrently on the mpte::par pool — one queue/condvar handoff per
//    batch instead of per request;
//  * admission control: the queue is bounded (submit past capacity is
//    rejected immediately with kResourceExhausted — backpressure, not
//    unbounded growth) and each request may carry a deadline (still
//    queued past it -> kDeadlineExceeded, the work is never done late).
//
// Every answer is computed by the same evaluate() used directly against
// the ensemble, so service answers are byte-identical to unbatched
// queries — batching changes scheduling, never values.
//
// A service is either *static* (owns one immutable EmbeddingEnsemble,
// epoch 0, updates rejected) or *dynamic* (owns a dyn::DynamicEnsemble).
// In dynamic mode every query evaluates against an epoch snapshot — one
// atomic shared_ptr load of the current immutable epoch, so readers never
// block on writers — and upsert/remove requests ride the same batcher:
// each drained batch applies its updates serially in submission order,
// publishes ONE new epoch, and only then evaluates the batch's queries
// (against the fresh epoch).
#pragma once

#include <chrono>
#include <cstddef>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/ensemble.hpp"
#include "dyn/dynamic_ensemble.hpp"
#include "obs/metrics.hpp"
#include "serve/types.hpp"

namespace mpte::serve {

struct ServiceOptions {
  /// Most requests evaluated per batcher wakeup.
  std::size_t max_batch = 64;
  /// How long the batcher waits for a partial batch to fill before
  /// draining what is there. 0 = drain immediately.
  std::chrono::microseconds max_wait{200};
  /// Admission bound: submits beyond this many queued requests are
  /// rejected with kResourceExhausted.
  std::size_t max_queue = 4096;
  /// Threads for concurrent batch evaluation (0 = mpte::par default).
  std::size_t eval_threads = 0;
  /// Start with the batcher paused (tests exercise admission control by
  /// filling the queue deterministically; see pause()/resume()).
  bool start_paused = false;
};

class EmbeddingService {
 public:
  /// Static mode: takes ownership of the ensemble (served as immutable
  /// epoch 0, upsert/remove rejected) and starts the batcher thread.
  explicit EmbeddingService(EmbeddingEnsemble ensemble,
                            ServiceOptions options = {});

  /// Dynamic mode: serves the ensemble's current epoch and applies
  /// upsert/remove requests through the batcher (one publish per drained
  /// batch). The DynamicEnsemble must be non-null and already created
  /// (current() non-null).
  explicit EmbeddingService(std::unique_ptr<dyn::DynamicEnsemble> dynamic,
                            ServiceOptions options = {});
  ~EmbeddingService();

  EmbeddingService(const EmbeddingService&) = delete;
  EmbeddingService& operator=(const EmbeddingService&) = delete;

  /// Enqueues one request. Never blocks: over-capacity or post-stop
  /// submits resolve the future immediately with a rejection Status.
  std::future<Result<Response>> submit(const Request& request);

  /// Enqueues many requests under one lock acquisition (the cheap way to
  /// pipeline). Futures are in request order; each is admitted or
  /// rejected independently.
  std::vector<std::future<Result<Response>>> submit_batch(
      const std::vector<Request>& requests);

  /// Evaluates a request synchronously against the ensemble — no queue,
  /// no stats. The batched path answers every query with this same call,
  /// and tests compare against it.
  Result<Response> evaluate(const Request& request) const;

  /// Counters + latency percentiles snapshot.
  ServiceStats stats() const;

  /// Exports the stats snapshot as mpte_serve_* metrics plus the full
  /// latency histogram (mpte_serve_latency_us). The `stats` wire line and
  /// the `metrics` exposition both derive from this registry content.
  void export_metrics(obs::Registry* registry) const;

  /// Prometheus text exposition of export_metrics(), terminated by the
  /// "# EOF" marker line — the serve `metrics` verb's response body.
  std::string metrics_text() const;

  /// Suspends / resumes batch draining. While paused, submits still
  /// enqueue (and admission control still applies) — used to exercise
  /// backpressure and deadline paths deterministically.
  void pause();
  void resume();

  /// Stops the batcher and rejects everything still queued with
  /// kUnavailable. Idempotent; the destructor calls it.
  void stop();

  /// The current epoch (static mode: the fixed epoch-0 wrapper). One
  /// atomic load in dynamic mode; never null; the shared_ptr keeps the
  /// snapshot alive for as long as the caller holds it.
  std::shared_ptr<const dyn::EnsembleEpoch> epoch_snapshot() const {
    return dynamic_ ? dynamic_->current() : static_epoch_;
  }
  /// Version of the current epoch (0 on a static service).
  std::uint64_t epoch() const { return epoch_snapshot()->version; }
  bool is_dynamic() const { return dynamic_ != nullptr; }

  /// The currently served ensemble. The reference is valid until the next
  /// epoch publish; callers that must outlive a publish should hold the
  /// epoch_snapshot() instead.
  const EmbeddingEnsemble& ensemble() const {
    return *epoch_snapshot()->ensemble;
  }
  std::size_t num_points() const { return epoch_snapshot()->num_points(); }
  std::size_t num_trees() const { return epoch_snapshot()->ensemble->size(); }
  /// Embedded dimension of the served points (== input dimension for
  /// dynamic services, which never apply the FJLT) — what an `upsert`
  /// must supply one coordinate per.
  std::size_t dim() const {
    return epoch_snapshot()->ensemble->member(0).dim_used;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request request;
    Clock::time_point enqueued;
    /// Clock::time_point::max() when the request carries no deadline.
    Clock::time_point deadline;
    std::promise<Result<Response>> promise;
  };

  void batcher_loop();
  /// Applies a batch's updates serially in submission order, publishes one
  /// new epoch when any applied, then evaluates the batch's queries on the
  /// pool (against the fresh epoch) and fulfills all promises in order.
  void run_batch(std::vector<Pending>& batch);
  /// Applies one upsert/remove to the dynamic ensemble (batcher thread
  /// only). The response's epoch is stamped after the batch publish.
  Result<Response> apply_update(const Request& request);
  void record_latency(double ms);

  /// Non-null in dynamic mode; writer side touched only by the batcher.
  std::unique_ptr<dyn::DynamicEnsemble> dynamic_;
  /// Static mode's one fixed epoch (version 0); null in dynamic mode.
  std::shared_ptr<const dyn::EnsembleEpoch> static_epoch_;
  ServiceOptions options_;
  Clock::time_point started_;

  mutable std::mutex mutex_;  // guards queue_, paused_, stopping_
  std::condition_variable work_cv_;
  std::deque<Pending> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  std::thread batcher_;
  std::mutex stop_mutex_;  // serializes stop() callers around the join

  mutable std::mutex stats_mutex_;  // guards everything below
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_queue_full_ = 0;
  std::uint64_t rejected_deadline_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t batches_ = 0;
  std::size_t max_batch_observed_ = 0;
  /// Log2-bucketed submit-to-completion latency histogram (microseconds):
  /// bucket i counts latencies in [2^(i-1), 2^i). An obs::Histogram so the
  /// same buckets back stats() percentiles and the metrics exposition.
  obs::Histogram latency_us_;
};

/// Mirrors a stats snapshot into mpte_serve_* registry series. Both the
/// one-line `stats` wire response (wire.cpp format_stats) and the service
/// metrics exposition render from this single mapping, so the two outputs
/// can never disagree about a count.
void export_service_stats(const ServiceStats& stats, obs::Registry* registry);

}  // namespace mpte::serve
