// DynamicEnsemble — epoch-published dynamic embeddings for serving.
//
// Wraps T DynamicEmbedders whose per-member seeds follow the exact
// derivation EmbeddingEnsemble::build uses, so the ensemble a publish()
// produces is byte-identical to a from-scratch EmbeddingEnsemble::build
// over the same final point set. Updates fan out across members on the
// mpte::par pool (each member's column computation is independent), and
// publish() turns the mutated state into a new *immutable* epoch:
//
//   EnsembleEpoch = { version, shared_ptr<const EmbeddingEnsemble> }
//
// swapped under a mutex held only to copy or swap the pointer (libstdc++
// 12's std::atomic<std::shared_ptr> trips ThreadSanitizer). Readers
// snapshot the current epoch (shared ownership keeps it alive for as long
// as they hold it) and never wait for a materialization: publish() builds
// the next epoch outside the lock — the same copy-on-write discipline the
// refcounted mpc::Buffer slabs use for zero-copy broadcast. Writers (insert/erase/publish) must be externally
// serialized; the serve batcher provides that serialization for free.
//
// Observability: every applied update, the per-update hierarchy cells
// recomputed ("subtree nodes re-embedded"), every published epoch, and an
// epoch-swap latency histogram are tracked and exported as mpte_dyn_*
// series (docs/observability.md naming).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/ensemble.hpp"
#include "dyn/dynamic_embedder.hpp"
#include "obs/metrics.hpp"

namespace mpte::dyn {

/// One immutable published version of the ensemble. Shared pointers keep
/// an epoch alive for exactly as long as any reader still uses it.
struct EnsembleEpoch {
  /// Monotonic version: 1 for the epoch create() publishes, +1 per
  /// publish().
  std::uint64_t version = 0;
  std::shared_ptr<const EmbeddingEnsemble> ensemble;
  /// Stable id of each dense point index (== member(0).point_ids).
  std::vector<std::uint64_t> point_ids;

  std::size_t num_points() const { return ensemble->num_points(); }
};

/// Point-in-time dynamic-layer counters; exported as mpte_dyn_* metrics.
struct DynStats {
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  /// inserts + erases.
  std::uint64_t updates_applied = 0;
  /// Hierarchy cells recomputed by updates, summed over members — the
  /// O(depth)-per-update work the dynamic algorithm saves vs a rebuild.
  std::uint64_t nodes_reembedded = 0;
  std::uint64_t epochs_published = 0;
  /// Version of the current epoch.
  std::uint64_t epoch = 0;
  std::size_t points = 0;
  std::size_t members = 0;
  double last_publish_ms = 0.0;
  /// Publish (materialize + index + swap) latency percentiles, octave
  /// resolution like the serve latency percentiles.
  double publish_p50_ms = 0.0;
  double publish_p99_ms = 0.0;
};

class DynamicEnsemble {
 public:
  struct Options {
    std::size_t trees = 4;
    /// Pool degree for member fan-out (0 = mpte::par default).
    std::size_t threads = 0;
    /// Shared pinned configuration; member t's seed is derived from
    /// member.seed exactly like EmbeddingEnsemble::build derives it.
    DynOptions member;
  };

  /// Builds all members over `initial` and publishes epoch 1. current()
  /// is never null afterwards.
  static Result<std::unique_ptr<DynamicEnsemble>> create(
      const PointSet& initial, const Options& options);

  /// Inserts one point (input units) into every member; returns its
  /// stable id. All-or-nothing: a coverage failure in any member rolls
  /// the others back. Not visible to readers until publish().
  Result<std::uint64_t> insert(std::span<const double> coords);

  /// Erases a live point from every member. Not visible until publish().
  Status erase(std::uint64_t id);

  /// Materializes every member (in parallel), builds the LcaIndexes, and
  /// swaps the new epoch in. O(n * depth * T) — amortize it
  /// over a batch of updates.
  Result<std::shared_ptr<const EnsembleEpoch>> publish();

  /// The current epoch: one pointer copy under epoch_mutex_, never null.
  /// Concurrent updates and publishes delay it by at most one pointer
  /// swap.
  std::shared_ptr<const EnsembleEpoch> current() const {
    const std::lock_guard<std::mutex> lock(epoch_mutex_);
    return epoch_;
  }

  /// Live point count of the *mutable* state (may be ahead of the
  /// published epoch). Writer-thread view.
  std::size_t size() const { return members_.front().size(); }
  std::size_t num_members() const { return members_.size(); }
  bool contains(std::uint64_t id) const {
    return members_.front().contains(id);
  }
  const DynamicEmbedder& member(std::size_t t) const { return members_[t]; }

  DynStats stats() const;
  /// Mirrors stats() into mpte_dyn_* series plus the full epoch-swap
  /// latency histogram (mpte_dyn_epoch_swap_us).
  void export_metrics(obs::Registry* registry) const;

 private:
  explicit DynamicEnsemble(Options options) : options_(std::move(options)) {}

  Options options_;
  std::vector<DynamicEmbedder> members_;
  /// Guards epoch_, held only to copy or swap the pointer.
  mutable std::mutex epoch_mutex_;
  std::shared_ptr<const EnsembleEpoch> epoch_;
  std::uint64_t next_version_ = 0;

  mutable std::mutex stats_mutex_;  // guards the counters below
  std::uint64_t inserts_ = 0;
  std::uint64_t erases_ = 0;
  std::uint64_t nodes_reembedded_ = 0;
  std::uint64_t epochs_published_ = 0;
  double last_publish_ms_ = 0.0;
  obs::Histogram publish_us_;
};

/// Mirrors a DynStats snapshot into mpte_dyn_* registry series (the
/// single-sourcing pattern export_service_stats established).
void export_dyn_stats(const DynStats& stats, obs::Registry* registry);

}  // namespace mpte::dyn
