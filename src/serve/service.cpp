#include "serve/service.hpp"

#include <algorithm>
#include <optional>

#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace mpte::serve {

namespace {

const char* kCombinerNames[] = {"min", "exp"};
const char* kKindNames[] = {"dist", "knn", "range", "upsert", "remove"};

double to_ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
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

}  // namespace

const char* to_string(Combiner combiner) {
  return kCombinerNames[static_cast<std::size_t>(combiner)];
}

const char* to_string(RequestKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

EmbeddingService::EmbeddingService(EmbeddingEnsemble ensemble,
                                   ServiceOptions options)
    : static_epoch_(make_static_epoch(std::move(ensemble))),
      options_(options),
      started_(Clock::now()),
      paused_(options.start_paused) {
  options_.max_batch = std::max<std::size_t>(1, options_.max_batch);
  options_.max_queue = std::max<std::size_t>(1, options_.max_queue);
  batcher_ = std::thread([this] { batcher_loop(); });
}

EmbeddingService::EmbeddingService(
    std::unique_ptr<dyn::DynamicEnsemble> dynamic, ServiceOptions options)
    : dynamic_(std::move(dynamic)),
      options_(options),
      started_(Clock::now()),
      paused_(options.start_paused) {
  options_.max_batch = std::max<std::size_t>(1, options_.max_batch);
  options_.max_queue = std::max<std::size_t>(1, options_.max_queue);
  batcher_ = std::thread([this] { batcher_loop(); });
}

EmbeddingService::~EmbeddingService() { stop(); }

std::future<Result<Response>> EmbeddingService::submit(
    const Request& request) {
  std::vector<Request> one{request};
  return std::move(submit_batch(one).front());
}

std::vector<std::future<Result<Response>>> EmbeddingService::submit_batch(
    const std::vector<Request>& requests) {
  std::vector<std::future<Result<Response>>> futures;
  futures.reserve(requests.size());
  const auto now = Clock::now();
  std::size_t admitted = 0;
  std::size_t rejected_full = 0;
  std::size_t rejected_down = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Request& request : requests) {
      std::promise<Result<Response>> promise;
      futures.push_back(promise.get_future());
      if (stopping_) {
        promise.set_value(Status(StatusCode::kUnavailable,
                                 "service is shutting down"));
        ++rejected_down;
        continue;
      }
      if (queue_.size() >= options_.max_queue) {
        promise.set_value(
            Status(StatusCode::kResourceExhausted,
                   "admission queue full (" +
                       std::to_string(options_.max_queue) +
                       "); retry with backoff"));
        ++rejected_full;
        continue;
      }
      Pending pending;
      pending.request = request;
      pending.enqueued = now;
      pending.deadline = request.deadline.count() > 0
                             ? now + request.deadline
                             : Clock::time_point::max();
      pending.promise = std::move(promise);
      queue_.push_back(std::move(pending));
      ++admitted;
    }
  }
  if (admitted > 0) work_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    submitted_ += requests.size();
    rejected_queue_full_ += rejected_full;
    failed_ += rejected_down;
  }
  return futures;
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
  const std::size_t n = batch.size();
  const obs::Span span("serve", "batch", "size", n);
  // Updates first, serially, in submission order — then ONE publish for
  // the whole batch, so the batch's queries (and every later reader) see
  // all of its updates at once. Queries evaluate concurrently afterwards.
  std::vector<std::optional<Result<Response>>> results(n);
  std::vector<double> latency_ms(n, 0.0);
  std::vector<std::size_t> applied;  // update slots awaiting epoch stamps
  for (std::size_t i = 0; i < n; ++i) {
    Pending& item = batch[i];
    if (!is_update(item.request.kind)) continue;
    if (Clock::now() > item.deadline) {
      results[i] = Status(StatusCode::kDeadlineExceeded,
                          "deadline expired before evaluation");
    } else {
      results[i] = apply_update(item.request);
      if (results[i]->ok()) applied.push_back(i);
    }
    latency_ms[i] = to_ms(Clock::now() - item.enqueued);
  }
  if (!applied.empty()) {
    auto published = dynamic_->publish();
    for (const std::size_t i : applied) {
      if (published.ok()) {
        (*results[i])->epoch = (*published)->version;
      } else {
        // The column changes are in but unpublished; surface the failure
        // rather than acknowledging an update no reader can see.
        results[i] = Status(StatusCode::kInternal,
                            "epoch publish failed: " +
                                published.status().to_string());
      }
    }
  }
  par::parallel_for(
      0, n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Pending& item = batch[i];
          if (is_update(item.request.kind)) continue;  // already applied
          results[i] = [&]() -> Result<Response> {
            if (Clock::now() > item.deadline) {
              return Status(StatusCode::kDeadlineExceeded,
                            "deadline expired before evaluation");
            }
            return evaluate(item.request);
          }();
          latency_ms[i] = to_ms(Clock::now() - item.enqueued);
        }
      },
      options_.eval_threads);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++batches_;
    max_batch_observed_ = std::max(max_batch_observed_, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (results[i]->ok()) {
        ++completed_;
        record_latency(latency_ms[i]);
      } else if (results[i]->status().code() ==
                 StatusCode::kDeadlineExceeded) {
        ++rejected_deadline_;
      } else {
        ++failed_;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    batch[i].promise.set_value(std::move(*results[i]));
  }
}

Result<Response> EmbeddingService::apply_update(const Request& request) {
  if (!dynamic_) {
    return Status(StatusCode::kInvalidArgument,
                  "static service: upsert/remove need --dynamic");
  }
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

Result<Response> EmbeddingService::evaluate(const Request& request) const {
  if (is_update(request.kind)) {
    return Status(StatusCode::kInvalidArgument,
                  "updates mutate state and must go through submit()");
  }
  // One snapshot per evaluation: the epoch shared_ptr keeps the ensemble
  // alive even if a publish swaps the current epoch mid-query.
  const auto snapshot = epoch_snapshot();
  const EmbeddingEnsemble& ensemble = *snapshot->ensemble;
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
      response.epoch = snapshot->version;
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
      response.epoch = snapshot->version;
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
      response.epoch = snapshot->version;
      return response;
    }
    case RequestKind::kUpsert:
    case RequestKind::kRemove:
      break;  // unreachable: rejected above
  }
  return Status(StatusCode::kInternal, "unknown request kind");
}

void EmbeddingService::record_latency(double ms) {
  const auto us = static_cast<std::uint64_t>(std::max(0.0, ms * 1000.0));
  latency_us_.observe(us);
}

ServiceStats EmbeddingService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.queue_depth = queue_.size();
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  out.submitted = submitted_;
  out.completed = completed_;
  out.rejected_queue_full = rejected_queue_full_;
  out.rejected_deadline = rejected_deadline_;
  out.failed = failed_;
  out.batches = batches_;
  out.max_batch_observed = max_batch_observed_;
  out.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - started_).count();
  if (out.uptime_seconds > 0.0) {
    out.qps = static_cast<double>(completed_) / out.uptime_seconds;
  }
  // Percentiles from the log2 histogram: report the upper edge of the
  // bucket holding the quantile (conservative, resolution one octave).
  out.p50_ms = latency_us_.quantile(0.50) / 1000.0;  // us -> ms
  out.p99_ms = latency_us_.quantile(0.99) / 1000.0;
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
        "Requests rejected by admission control (queue full).",
        stats.rejected_queue_full);
  count("mpte_serve_rejected_deadline_total",
        "Requests expired in queue past their deadline.",
        stats.rejected_deadline);
  count("mpte_serve_failed_total", "Requests that evaluated to an error.",
        stats.failed);
  count("mpte_serve_batches_total", "Batcher wakeups that drained work.",
        stats.batches);
  gauge("mpte_serve_queue_depth", "Requests currently queued.",
        static_cast<double>(stats.queue_depth));
  gauge("mpte_serve_max_batch", "Largest batch drained so far.",
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
