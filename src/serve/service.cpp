#include "serve/service.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace mpte::serve {

namespace {

const char* kKindNames[] = {"dist", "knn", "range", "upsert", "remove"};

using Clock = std::chrono::steady_clock;

/// Latency histogram sample: whole microseconds, never negative.
std::uint64_t to_us(Clock::duration d) {
  return static_cast<std::uint64_t>(std::max<Clock::rep>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(d).count()));
}

/// Clock::time_point::max() when the request carries no deadline.
Clock::time_point deadline_of(const Request& request,
                              Clock::time_point submitted) {
  return request.deadline.count() > 0 ? submitted + request.deadline
                                      : Clock::time_point::max();
}

Status deadline_exceeded() {
  return Status(StatusCode::kDeadlineExceeded,
                "deadline expired before evaluation");
}

/// Wraps a static-mode ensemble as the one fixed epoch the service serves.
std::shared_ptr<const dyn::EnsembleEpoch> make_static_epoch(
    EmbeddingEnsemble ensemble) {
  auto epoch = std::make_shared<dyn::EnsembleEpoch>();
  epoch->version = 0;
  epoch->ensemble = std::make_shared<const EmbeddingEnsemble>(
      std::move(ensemble));
  return epoch;
}

ServiceOptions normalized(ServiceOptions options) {
  options.max_batch = std::max<std::size_t>(1, options.max_batch);
  options.max_queue = std::max<std::size_t>(1, options.max_queue);
  return options;
}

}  // namespace

const char* to_string(RequestKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

EmbeddingService::EmbeddingService(EmbeddingEnsemble ensemble,
                                   ServiceOptions options)
    : static_epoch_(make_static_epoch(std::move(ensemble))),
      options_(normalized(options)),
      started_(Clock::now()) {}

EmbeddingService::EmbeddingService(
    std::unique_ptr<dyn::DynamicEnsemble> dynamic, ServiceOptions options)
    : dynamic_(std::move(dynamic)),
      options_(normalized(options)),
      started_(Clock::now()) {
  batcher_ = std::thread([this] { batcher_loop(); });
}

EmbeddingService::~EmbeddingService() { stop(); }

Reply EmbeddingService::submit(const Request& request) {
  std::vector<Request> one{request};
  return std::move(submit_batch(one).front());
}

std::vector<Reply> EmbeddingService::submit_batch(
    const std::vector<Request>& requests) {
  const auto submitted = Clock::now();
  const std::size_t n = requests.size();
  // Updates go to the batcher; reads are answered below, on this thread.
  std::vector<std::optional<Status>> refusals(n);
  std::vector<std::future<Result<Response>>> updates(n);
  std::vector<std::size_t> reads;
  reads.reserve(n);
  std::size_t queued = 0;
  std::size_t rejected_full = 0;
  std::size_t refused = 0;  // after stop(), or an update to a static service
  {
    std::lock_guard<std::mutex> lock(mutex_);
    submitted_ += n;
    for (std::size_t i = 0; i < n; ++i) {
      const Request& request = requests[i];
      if (stopping_) {
        refusals[i] =
            Status(StatusCode::kUnavailable, "service is shutting down");
        ++refused;
      } else if (!is_update(request.kind)) {
        reads.push_back(i);
      } else if (!dynamic_) {
        refusals[i] =
            Status(StatusCode::kInvalidArgument,
                   "static service: upsert/remove need --dynamic");
        ++refused;
      } else if (queue_.size() >= options_.max_queue) {
        refusals[i] = Status(StatusCode::kResourceExhausted,
                             "admission queue full (" +
                                 std::to_string(options_.max_queue) +
                                 "); retry with backoff");
        ++rejected_full;
      } else {
        std::promise<Result<Response>> promise;
        updates[i] = promise.get_future();
        queue_.push_back({request, submitted, std::move(promise)});
        ++queued;
      }
    }
  }
  if (queued > 0) work_cv_.notify_all();
  std::vector<Result<Response>> answers;
  if (!reads.empty()) {
    // The window's reads see its updates: they wait for the publish.
    for (const auto& update : updates) {
      if (update.valid()) update.wait();
    }
    const obs::Span span("serve", "batch", "size", reads.size());
    // One snapshot for the whole window, so its reads agree on an epoch.
    const auto epoch = epoch_snapshot();
    answers.reserve(reads.size());
    for (const std::size_t i : reads) {
      const Request& request = requests[i];
      answers.push_back(request.deadline.count() > 0 &&
                                Clock::now() > deadline_of(request, submitted)
                            ? Result<Response>(deadline_exceeded())
                            : evaluate(*epoch, request));
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    rejected_queue_full_ += rejected_full;
    failed_ += refused;
    if (!answers.empty()) {
      // The window's reads complete together, so they share one latency.
      latency_us_.observe(to_us(Clock::now() - submitted),
                          count_batch(answers));
    }
  }
  std::vector<Reply> replies;
  replies.reserve(n);
  std::size_t next_answer = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (refusals[i]) {
      replies.emplace_back(Result<Response>(std::move(*refusals[i])));
    } else if (updates[i].valid()) {
      replies.emplace_back(std::move(updates[i]));
    } else {
      replies.emplace_back(std::move(answers[next_answer++]));
    }
  }
  return replies;
}

void EmbeddingService::batcher_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (stopping_) return;
    // A partial batch waits up to max_wait for company; a full one (or a
    // zero max_wait) drains immediately.
    if (options_.max_wait.count() > 0 &&
        queue_.size() < options_.max_batch) {
      const auto window_end = Clock::now() + options_.max_wait;
      work_cv_.wait_until(lock, window_end, [this] {
        return stopping_ || paused_ || queue_.size() >= options_.max_batch;
      });
      if (stopping_) return;
      if (paused_ || queue_.empty()) continue;
    }
    std::vector<Pending> batch;
    const std::size_t take = std::min(queue_.size(), options_.max_batch);
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    run_batch(batch);
    lock.lock();
  }
}

void EmbeddingService::run_batch(std::vector<Pending>& batch) {
  const obs::Span span("serve", "batch", "size", batch.size());
  // Serially, in submission order — then ONE publish for the whole batch,
  // so every later reader sees all of its updates at once.
  std::vector<Result<Response>> results;
  results.reserve(batch.size());
  bool applied = false;
  for (const Pending& item : batch) {
    results.push_back(Clock::now() > deadline_of(item.request, item.enqueued)
                          ? Result<Response>(deadline_exceeded())
                          : apply_update(item.request));
    applied = applied || results.back().ok();
  }
  if (applied) {
    const auto published = dynamic_->publish();
    for (Result<Response>& result : results) {
      if (!result.ok()) continue;
      if (published.ok()) {
        result->epoch = (*published)->version;
      } else {
        // The column changes are in but unpublished; surface the failure
        // rather than acknowledging an update no reader can see.
        result = Status(StatusCode::kInternal,
                        "epoch publish failed: " +
                            published.status().to_string());
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    count_batch(results);
    const auto done = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (results[i].ok()) {
        latency_us_.observe(to_us(done - batch[i].enqueued));
      }
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(results[i]));
  }
}

std::uint64_t EmbeddingService::count_batch(
    const std::vector<Result<Response>>& results) {
  ++batches_;
  max_batch_observed_ = std::max(max_batch_observed_, results.size());
  std::uint64_t ok = 0;
  for (const Result<Response>& result : results) {
    if (result.ok()) {
      ++ok;
    } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
      ++rejected_deadline_;
    } else {
      ++failed_;
    }
  }
  completed_ += ok;
  return ok;
}

Result<Response> EmbeddingService::apply_update(const Request& request) {
  Response response;
  response.kind = request.kind;
  if (request.kind == RequestKind::kUpsert) {
    auto id = dynamic_->insert(request.coords);
    if (!id.ok()) return id.status();
    response.id = *id;
  } else {
    const Status erased = dynamic_->erase(request.id);
    if (!erased.ok()) return erased;
    response.id = request.id;
  }
  response.value = static_cast<double>(response.id);
  return response;  // epoch stamped by run_batch after the batch publish
}

Result<Response> EmbeddingService::evaluate(const dyn::EnsembleEpoch& epoch,
                                            const Request& request) {
  if (is_update(request.kind)) {
    return Status(StatusCode::kInvalidArgument,
                  "updates mutate state and must go through submit()");
  }
  // The caller holds the epoch's shared_ptr, which keeps the ensemble
  // alive even if a publish swaps the current epoch mid-query.
  const EmbeddingEnsemble& ensemble = *epoch.ensemble;
  const std::size_t n = ensemble.num_points();
  const auto combined = [&ensemble, &request](std::size_t a, std::size_t b) {
    return request.combiner == Combiner::kMin
               ? ensemble.min_distance(a, b)
               : ensemble.expected_distance(a, b);
  };
  switch (request.kind) {
    case RequestKind::kDistance: {
      if (request.p >= n || request.q >= n) {
        return Status(StatusCode::kInvalidArgument,
                      "point index out of range (n=" + std::to_string(n) +
                          ")");
      }
      Response response;
      response.kind = request.kind;
      response.value = combined(request.p, request.q);
      response.epoch = epoch.version;
      return response;
    }
    case RequestKind::kKnn: {
      if (request.p >= n) {
        return Status(StatusCode::kInvalidArgument,
                      "point index out of range (n=" + std::to_string(n) +
                          ")");
      }
      if (request.k == 0) {
        return Status(StatusCode::kInvalidArgument, "knn needs k >= 1");
      }
      const std::size_t want = std::min(request.k, n - 1);
      // Walk up member 0's tree until the subtree holds enough candidates
      // (Lemma 1: subtree diameter bounds candidate distance), then rank
      // the gathered leaves by the combined ensemble distance.
      const Hst& tree = ensemble.member(0).tree;
      std::size_t node = tree.leaf(request.p);
      while (tree.node(node).parent >= 0 &&
             tree.node(node).subtree_size < want + 1) {
        node = static_cast<std::size_t>(tree.node(node).parent);
      }
      std::vector<Neighbor> neighbors;
      neighbors.reserve(tree.node(node).subtree_size);
      std::vector<std::size_t> stack{node};
      while (!stack.empty()) {
        const std::size_t current = stack.back();
        stack.pop_back();
        const HstNode& info = tree.node(current);
        if (info.point >= 0) {
          const auto point = static_cast<std::size_t>(info.point);
          if (point != request.p) {
            neighbors.push_back({point, combined(request.p, point)});
          }
          continue;
        }
        const auto& children = tree.children(current);
        stack.insert(stack.end(), children.begin(), children.end());
      }
      std::sort(neighbors.begin(), neighbors.end(),
                [](const Neighbor& a, const Neighbor& b) {
                  return a.distance != b.distance ? a.distance < b.distance
                                                  : a.point < b.point;
                });
      if (neighbors.size() > want) neighbors.resize(want);
      Response response;
      response.kind = request.kind;
      response.value = static_cast<double>(neighbors.size());
      response.neighbors = std::move(neighbors);
      response.epoch = epoch.version;
      return response;
    }
    case RequestKind::kRangeCount: {
      if (request.p >= n) {
        return Status(StatusCode::kInvalidArgument,
                      "point index out of range (n=" + std::to_string(n) +
                          ")");
      }
      // NaN fails this test too; +inf counts every point.
      if (!(request.radius >= 0.0)) {
        return Status(StatusCode::kInvalidArgument,
                      "range radius must be >= 0");
      }
      std::size_t count = 0;
      for (std::size_t q = 0; q < n; ++q) {
        if (q == request.p) continue;
        if (combined(request.p, q) <= request.radius) ++count;
      }
      Response response;
      response.kind = request.kind;
      response.value = static_cast<double>(count);
      response.epoch = epoch.version;
      return response;
    }
    case RequestKind::kUpsert:
    case RequestKind::kRemove:
      break;  // unreachable: rejected above
  }
  return Status(StatusCode::kInternal, "unknown request kind");
}

ServiceStats EmbeddingService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out.completed = completed_;
    out.rejected_queue_full = rejected_queue_full_;
    out.rejected_deadline = rejected_deadline_;
    out.failed = failed_;
    out.batches = batches_;
    out.max_batch_observed = max_batch_observed_;
    // Percentiles from the log2 histogram: report the upper edge of the
    // bucket holding the quantile (conservative, resolution one octave).
    out.p50_ms = latency_us_.quantile(0.50) / 1000.0;  // us -> ms
    out.p99_ms = latency_us_.quantile(0.99) / 1000.0;
  }
  {
    // Read after the outcomes: every request counted above was admitted
    // before it completed, so submitted never reads below completed.
    std::lock_guard<std::mutex> lock(mutex_);
    out.queue_depth = queue_.size();
    out.submitted = submitted_;
  }
  out.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - started_).count();
  if (out.uptime_seconds > 0.0) {
    out.qps = static_cast<double>(out.completed) / out.uptime_seconds;
  }
  return out;
}

void export_service_stats(const ServiceStats& stats,
                          obs::Registry* registry) {
  const auto count = [registry](const char* name, const char* help,
                                std::uint64_t value) {
    registry->counter(name, help).set(value);
  };
  const auto gauge = [registry](const char* name, const char* help,
                                double value) {
    registry->gauge(name, help).set(value);
  };
  count("mpte_serve_submitted_total", "Requests accepted by submit().",
        stats.submitted);
  count("mpte_serve_completed_total", "Requests answered successfully.",
        stats.completed);
  count("mpte_serve_rejected_queue_full_total",
        "Updates rejected by admission control (queue full).",
        stats.rejected_queue_full);
  count("mpte_serve_rejected_deadline_total",
        "Requests whose deadline passed before evaluation.",
        stats.rejected_deadline);
  count("mpte_serve_failed_total", "Requests that evaluated to an error.",
        stats.failed);
  count("mpte_serve_batches_total",
        "Read windows evaluated plus update batches drained.",
        stats.batches);
  gauge("mpte_serve_queue_depth", "Updates currently queued.",
        static_cast<double>(stats.queue_depth));
  gauge("mpte_serve_max_batch", "Largest read window or update batch.",
        static_cast<double>(stats.max_batch_observed));
  gauge("mpte_serve_qps", "Completed requests per second of uptime.",
        stats.qps);
  gauge("mpte_serve_latency_p50_ms",
        "Median submit-to-completion latency (octave resolution).",
        stats.p50_ms);
  gauge("mpte_serve_latency_p99_ms",
        "99th percentile submit-to-completion latency (octave resolution).",
        stats.p99_ms);
  gauge("mpte_serve_uptime_seconds", "Seconds since service start.",
        stats.uptime_seconds);
}

void EmbeddingService::export_metrics(obs::Registry* registry) const {
  export_service_stats(stats(), registry);
  registry
      ->histogram("mpte_serve_latency_us",
                  "Submit-to-completion latency in microseconds "
                  "(log2 buckets).")
      .merge_from(latency_us_);
  if (dynamic_) dynamic_->export_metrics(registry);
}

std::string EmbeddingService::metrics_text() const {
  obs::Registry registry;
  export_metrics(&registry);
  return registry.prometheus_text();
}

void EmbeddingService::pause() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
  }
  work_cv_.notify_all();
}

void EmbeddingService::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void EmbeddingService::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftover.swap(queue_);
  }
  for (Pending& pending : leftover) {
    pending.promise.set_value(
        Status(StatusCode::kUnavailable, "service stopped before evaluation"));
  }
  if (!leftover.empty()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    failed_ += leftover.size();
  }
}

}  // namespace mpte::serve
