// Request/response vocabulary of the embedding query service.
//
// The serving tier exists because a tree embedding is a build-once,
// query-millions sketch (Corollary 1): after the O(1)-round MPC build, a
// distance / k-NN / range query costs O(T log depth) tree work. These
// types are the service's typed surface — what the in-process API takes
// and returns, what the wire protocol (serve/wire.hpp) encodes, and what
// the stats snapshot reports.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpte::serve {

/// How multi-tree answers are combined across ensemble members (see
/// core/ensemble.hpp for why min is the practical default).
enum class Combiner : std::uint8_t {
  kMin,
  kExpected,
};

enum class RequestKind : std::uint8_t {
  /// Tree-metric distance between two embedded points.
  kDistance,
  /// Approximate k nearest neighbors by HST subtree walk.
  kKnn,
  /// Number of points within a given combined tree distance.
  kRangeCount,
  /// Insert a point (dynamic services only); answer carries its stable id.
  kUpsert,
  /// Erase a point by stable id (dynamic services only).
  kRemove,
};

/// True for the kinds that mutate the point set (dynamic services only).
constexpr bool is_update(RequestKind kind) {
  return kind == RequestKind::kUpsert || kind == RequestKind::kRemove;
}

const char* to_string(RequestKind kind);

/// One query. Which fields matter depends on `kind`; the factory
/// functions build well-formed instances.
struct Request {
  RequestKind kind = RequestKind::kDistance;
  Combiner combiner = Combiner::kMin;
  /// Query point (all kinds).
  std::size_t p = 0;
  /// Second point (kDistance only).
  std::size_t q = 0;
  /// Neighbor count (kKnn only).
  std::size_t k = 0;
  /// Distance threshold in input units (kRangeCount only).
  double radius = 0.0;
  /// Input-unit coordinates of the point to insert (kUpsert only).
  std::vector<double> coords;
  /// Stable point id to erase (kRemove only).
  std::uint64_t id = 0;
  /// Admission deadline measured from submit; 0 = none. A request still
  /// queued when its deadline passes is rejected with kDeadlineExceeded
  /// instead of evaluated late.
  std::chrono::microseconds deadline{0};

  static Request Distance(std::size_t p, std::size_t q,
                          Combiner combiner = Combiner::kMin) {
    Request r;
    r.kind = RequestKind::kDistance;
    r.combiner = combiner;
    r.p = p;
    r.q = q;
    return r;
  }

  static Request Knn(std::size_t p, std::size_t k,
                     Combiner combiner = Combiner::kMin) {
    Request r;
    r.kind = RequestKind::kKnn;
    r.combiner = combiner;
    r.p = p;
    r.k = k;
    return r;
  }

  static Request RangeCount(std::size_t p, double radius,
                            Combiner combiner = Combiner::kMin) {
    Request r;
    r.kind = RequestKind::kRangeCount;
    r.combiner = combiner;
    r.p = p;
    r.radius = radius;
    return r;
  }

  static Request Upsert(std::vector<double> coords) {
    Request r;
    r.kind = RequestKind::kUpsert;
    r.coords = std::move(coords);
    return r;
  }

  static Request Remove(std::uint64_t id) {
    Request r;
    r.kind = RequestKind::kRemove;
    r.id = id;
    return r;
  }
};

/// One k-NN hit.
struct Neighbor {
  std::size_t point = 0;
  /// Combined tree distance to the query, in input units.
  double distance = 0.0;
};

/// Answer to a Request of the matching kind.
struct Response {
  RequestKind kind = RequestKind::kDistance;
  /// kDistance: the combined distance. kRangeCount: the count.
  /// kKnn: the number of neighbors returned. kUpsert/kRemove: the id.
  double value = 0.0;
  /// kKnn only: neighbors ascending by (distance, point index).
  std::vector<Neighbor> neighbors;
  /// kUpsert: the assigned stable id. kRemove: the erased id.
  std::uint64_t id = 0;
  /// Version of the ensemble epoch the answer reflects — for updates, the
  /// epoch their batch published; 0 on a static (non-dynamic) service.
  std::uint64_t epoch = 0;
};

/// Point-in-time service counters; see docs/serving.md for field
/// semantics. Latency percentiles cover completed requests only
/// (submit-to-completion; for an update, including its queue wait).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Admission-control rejections: update queue at capacity at submit.
  std::uint64_t rejected_queue_full = 0;
  /// Deadline passed before the request was evaluated.
  std::uint64_t rejected_deadline = 0;
  /// Answered with a non-OK status (e.g. bad point index, or submitted
  /// after stop()).
  std::uint64_t failed = 0;
  /// Read windows evaluated plus update batches drained.
  std::uint64_t batches = 0;
  /// Updates waiting right now.
  std::size_t queue_depth = 0;
  /// Largest read window or update batch so far.
  std::size_t max_batch_observed = 0;
  /// completed / uptime.
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double uptime_seconds = 0.0;
};

}  // namespace mpte::serve
