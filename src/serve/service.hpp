// EmbeddingService — the long-lived, thread-safe query tier.
//
// One embedding build is amortized over millions of queries (the whole
// point of Corollary 1), so the serving half of the system is: an
// EmbeddingEnsemble with per-member LcaIndexes, fronted by
//
//  * one read path: submit() and submit_batch() evaluate every read
//    (dist, knn, range) on the calling thread, in order, against one
//    epoch snapshot per window, before they return — no queue and no
//    thread hand-off, so a read costs its tree work;
//  * an update batcher (dynamic services only): upsert/remove requests
//    are queued, and a dedicated thread drains up to max_batch of them per
//    wakeup (waiting at most max_wait for a batch to fill), applies them
//    serially in submission order and publishes ONE new epoch per drained
//    batch — the publish is O(n·L·T), so it is folded over many updates;
//  * admission control: the update queue is bounded (an update past
//    capacity is rejected immediately with kResourceExhausted —
//    backpressure, not unbounded growth) and each request may carry a
//    deadline (not yet evaluated past it -> kDeadlineExceeded, the work is
//    never done late).
//
// Every answer is computed by the same evaluate() a caller can run
// directly against the ensemble, so service answers are byte-identical to
// unbatched queries — windows change scheduling, never values.
//
// A service is either *static* (owns one immutable EmbeddingEnsemble,
// epoch 0, updates rejected, no batcher thread) or *dynamic* (owns a
// dyn::DynamicEnsemble). Readers take the current epoch with one snapshot
// load, so they never block on the writer. A window that holds both
// updates and reads waits for the batcher to publish its updates, then
// evaluates its reads against that epoch or a later one.
#pragma once

#include <chrono>
#include <cstddef>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/ensemble.hpp"
#include "dyn/dynamic_ensemble.hpp"
#include "obs/metrics.hpp"
#include "serve/types.hpp"

namespace mpte::serve {

/// The batcher's settings. Reads never queue, so all three govern updates
/// only.
struct ServiceOptions {
  /// Most updates applied per batcher wakeup (one publish each).
  std::size_t max_batch = 64;
  /// How long the batcher waits for a partial batch of updates to fill
  /// before draining what is there. 0 = drain immediately.
  std::chrono::microseconds max_wait{200};
  /// Admission bound: updates beyond this many queued are rejected with
  /// kResourceExhausted.
  std::size_t max_queue = 4096;
};

/// One request's answer as submit() hands it back. A read's answer, and
/// any rejection, is here when submit() returns: the submitting thread
/// evaluated it. An update's arrives when the batcher publishes its batch.
/// Move-only; get() once.
class Reply {
 public:
  explicit Reply(Result<Response> answer) : answer_(std::move(answer)) {}
  explicit Reply(std::future<Result<Response>> pending)
      : pending_(std::move(pending)) {}

  /// True when get() will not block.
  bool ready() const {
    return answer_.has_value() ||
           pending_.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
  }
  /// The answer; for an update, blocks until its batch is published.
  Result<Response> get() {
    return answer_ ? std::move(*answer_) : pending_.get();
  }

 private:
  std::optional<Result<Response>> answer_;
  std::future<Result<Response>> pending_;
};

class EmbeddingService {
 public:
  /// Static mode: takes ownership of the ensemble (served as immutable
  /// epoch 0, upsert/remove rejected). Starts no thread.
  explicit EmbeddingService(EmbeddingEnsemble ensemble,
                            ServiceOptions options = {});

  /// Dynamic mode: serves the ensemble's current epoch and applies
  /// upsert/remove requests through the batcher thread (one publish per
  /// drained batch). The DynamicEnsemble must be non-null and already
  /// created (current() non-null).
  explicit EmbeddingService(std::unique_ptr<dyn::DynamicEnsemble> dynamic,
                            ServiceOptions options = {});
  ~EmbeddingService();

  EmbeddingService(const EmbeddingService&) = delete;
  EmbeddingService& operator=(const EmbeddingService&) = delete;

  /// submit_batch() of one request.
  Reply submit(const Request& request);

  /// Submits a window of requests; replies are in request order. Reads
  /// are evaluated on this thread before the call returns, so their
  /// replies are ready. Updates are admitted to the batcher's queue under
  /// one lock, and their replies resolve when it publishes them; a window
  /// that also holds reads first waits until its updates are published or
  /// refused (on a paused service, until resume() or stop()). Rejections —
  /// update queue full, deadline passed, submitted after stop() — are a
  /// Status in the reply; a read is never refused for load.
  std::vector<Reply> submit_batch(const std::vector<Request>& requests);

  /// Evaluates a read synchronously against the current epoch — no stats.
  /// submit() and submit_batch() answer every read with this same routine,
  /// and tests compare against it.
  Result<Response> evaluate(const Request& request) const {
    return evaluate(*epoch_snapshot(), request);
  }

  /// Counters + latency percentiles snapshot.
  ServiceStats stats() const;

  /// Exports the stats snapshot as mpte_serve_* metrics plus the full
  /// latency histogram (mpte_serve_latency_us). The `stats` wire line and
  /// the `metrics` exposition both derive from this registry content.
  void export_metrics(obs::Registry* registry) const;

  /// Prometheus text exposition of export_metrics(), terminated by the
  /// "# EOF" marker line — the serve `metrics` verb's response body.
  std::string metrics_text() const;

  /// Suspends / resumes the batcher's draining of updates. While paused,
  /// updates still enqueue (and admission control still applies), and
  /// reads are still answered — used to exercise backpressure and
  /// deadline paths deterministically. Nothing is queued before the first
  /// submit, so pause() right after construction holds every update.
  void pause();
  void resume();

  /// Stops the batcher and rejects every queued update with kUnavailable;
  /// later submits get kUnavailable too. Idempotent; the destructor calls
  /// it.
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
    std::promise<Result<Response>> promise;
  };

  /// The one read routine: a dist, knn or range against `epoch`.
  static Result<Response> evaluate(const dyn::EnsembleEpoch& epoch,
                                   const Request& request);
  void batcher_loop();
  /// Applies a batch's updates serially in submission order, publishes one
  /// new epoch when any applied, and fulfills the batch's promises in
  /// order.
  void run_batch(std::vector<Pending>& batch);
  /// Applies one upsert/remove to the dynamic ensemble (batcher thread
  /// only). The response's epoch is stamped after the batch publish.
  Result<Response> apply_update(const Request& request);
  /// Folds the outcomes of one evaluated window or drained batch into the
  /// counters and returns how many completed; the caller records their
  /// latency. Caller holds stats_mutex_.
  std::uint64_t count_batch(const std::vector<Result<Response>>& results);

  /// Non-null in dynamic mode; writer side touched only by the batcher.
  std::unique_ptr<dyn::DynamicEnsemble> dynamic_;
  /// Static mode's one fixed epoch (version 0); null in dynamic mode.
  std::shared_ptr<const dyn::EnsembleEpoch> static_epoch_;
  ServiceOptions options_;
  Clock::time_point started_;

  mutable std::mutex mutex_;  // guards queue_, paused_, stopping_, submitted_
  std::condition_variable work_cv_;
  std::deque<Pending> queue_;  // updates only
  bool paused_ = false;
  bool stopping_ = false;
  /// Counted at admission, before any of the window is answered; stats()
  /// reads it after the outcomes, so it never reads below completed.
  std::uint64_t submitted_ = 0;
  std::thread batcher_;  // dynamic mode only
  std::mutex stop_mutex_;  // serializes stop() callers around the join

  mutable std::mutex stats_mutex_;  // guards everything below
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
