#include "dyn/dynamic_ensemble.hpp"

#include <optional>
#include <utility>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace mpte::dyn {

Result<std::unique_ptr<DynamicEnsemble>> DynamicEnsemble::create(
    const PointSet& initial, const Options& options) {
  if (options.trees == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "DynamicEnsemble: need at least one tree");
  }
  auto ensemble =
      std::unique_ptr<DynamicEnsemble>(new DynamicEnsemble(options));
  const std::size_t trees = options.trees;
  std::vector<std::optional<DynamicEmbedder>> slots(trees);
  std::vector<Status> statuses(trees);
  // Same member-seed derivation as EmbeddingEnsemble::build, so the
  // published ensemble is byte-identical to the static build.
  par::parallel_for_chunked(
      0, trees, trees,
      [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          DynOptions member_options = options.member;
          member_options.seed =
              hash_combine(mix64(options.member.seed ^ 0xe45eull), t);
          auto member = DynamicEmbedder::create(initial, member_options);
          if (member.ok()) {
            slots[t] = std::move(member).value();
          } else {
            statuses[t] = member.status();
          }
        }
      },
      options.threads);
  for (std::size_t t = 0; t < trees; ++t) {
    if (!statuses[t].ok()) return statuses[t];
  }
  ensemble->members_.reserve(trees);
  for (std::size_t t = 0; t < trees; ++t) {
    ensemble->members_.push_back(std::move(*slots[t]));
  }
  auto published = ensemble->publish();
  if (!published.ok()) return published.status();
  return ensemble;
}

Result<std::uint64_t> DynamicEnsemble::insert(std::span<const double> coords) {
  const std::uint64_t id = members_.front().next_id();
  const obs::Span span("dyn", "insert", "id", id);
  const std::size_t trees = members_.size();
  std::vector<Status> statuses(trees);
  par::parallel_for_chunked(
      0, trees, trees,
      [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          statuses[t] = members_[t].insert_with_id(id, coords);
        }
      },
      options_.threads);
  for (std::size_t t = 0; t < trees; ++t) {
    if (!statuses[t].ok()) {
      // All-or-nothing: drop the column from members that accepted it so
      // every member keeps the identical live set.
      for (std::size_t u = 0; u < trees; ++u) {
        if (statuses[u].ok()) (void)members_[u].erase(id);
      }
      return statuses[t];
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++inserts_;
  nodes_reembedded_ +=
      static_cast<std::uint64_t>(trees) *
      (members_.front().levels() + 1);
  return id;
}

Status DynamicEnsemble::erase(std::uint64_t id) {
  const obs::Span span("dyn", "erase", "id", id);
  // Members hold identical live sets, so the first member's guards decide
  // for all; the erase itself is O(log n) per member.
  for (DynamicEmbedder& member : members_) {
    const Status erased = member.erase(id);
    if (!erased.ok()) return erased;
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++erases_;
  return Status::Ok();
}

Result<std::shared_ptr<const EnsembleEpoch>> DynamicEnsemble::publish() {
  const obs::Span span("dyn", "publish", "points",
                       members_.front().size());
  Timer timer;
  const std::size_t trees = members_.size();
  std::vector<std::optional<Embedding>> slots(trees);
  std::vector<Status> statuses(trees);
  par::parallel_for_chunked(
      0, trees, trees,
      [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          auto materialized = members_[t].materialize();
          if (materialized.ok()) {
            slots[t] = std::move(materialized).value();
          } else {
            statuses[t] = materialized.status();
          }
        }
      },
      options_.threads);
  for (std::size_t t = 0; t < trees; ++t) {
    if (!statuses[t].ok()) return statuses[t];
  }
  std::vector<Embedding> members;
  members.reserve(trees);
  for (std::size_t t = 0; t < trees; ++t) {
    members.push_back(std::move(*slots[t]));
  }
  auto epoch = std::make_shared<EnsembleEpoch>();
  epoch->point_ids = members.front().point_ids;
  auto built = EmbeddingEnsemble::from_members(std::move(members));
  if (!built.ok()) return built.status();
  epoch->ensemble = std::make_shared<const EmbeddingEnsemble>(
      std::move(built).value());
  epoch->version = ++next_version_;
  std::shared_ptr<const EnsembleEpoch> previous = epoch;
  {
    const std::lock_guard<std::mutex> lock(epoch_mutex_);
    epoch_.swap(previous);  // the old epoch is released after the lock
  }
  const double ms = timer.seconds() * 1000.0;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++epochs_published_;
    last_publish_ms_ = ms;
    publish_us_.observe(static_cast<std::uint64_t>(ms * 1000.0));
  }
  return std::shared_ptr<const EnsembleEpoch>(epoch);
}

DynStats DynamicEnsemble::stats() const {
  DynStats out;
  const auto epoch = current();
  if (epoch) {
    out.epoch = epoch->version;
    out.points = epoch->num_points();
  }
  out.members = members_.size();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  out.inserts = inserts_;
  out.erases = erases_;
  out.updates_applied = inserts_ + erases_;
  out.nodes_reembedded = nodes_reembedded_;
  out.epochs_published = epochs_published_;
  out.last_publish_ms = last_publish_ms_;
  out.publish_p50_ms = publish_us_.quantile(0.50) / 1000.0;
  out.publish_p99_ms = publish_us_.quantile(0.99) / 1000.0;
  return out;
}

void export_dyn_stats(const DynStats& stats, obs::Registry* registry) {
  const auto count = [registry](const char* name, const char* help,
                                std::uint64_t value) {
    registry->counter(name, help).set(value);
  };
  const auto gauge = [registry](const char* name, const char* help,
                                double value) {
    registry->gauge(name, help).set(value);
  };
  count("mpte_dyn_inserts_total", "Points inserted across all members.",
        stats.inserts);
  count("mpte_dyn_erases_total", "Points erased across all members.",
        stats.erases);
  count("mpte_dyn_updates_total", "Updates applied (inserts + erases).",
        stats.updates_applied);
  count("mpte_dyn_nodes_reembedded_total",
        "Hierarchy cells recomputed by updates, summed over members.",
        stats.nodes_reembedded);
  count("mpte_dyn_epochs_published_total",
        "Immutable ensemble epochs published.", stats.epochs_published);
  gauge("mpte_dyn_epoch", "Version of the current epoch.",
        static_cast<double>(stats.epoch));
  gauge("mpte_dyn_points", "Points in the current epoch.",
        static_cast<double>(stats.points));
  gauge("mpte_dyn_members", "Ensemble members (trees).",
        static_cast<double>(stats.members));
  gauge("mpte_dyn_last_epoch_swap_ms",
        "Latency of the most recent publish (materialize + index + swap).",
        stats.last_publish_ms);
  gauge("mpte_dyn_epoch_swap_p50_ms",
        "Median publish latency (octave resolution).", stats.publish_p50_ms);
  gauge("mpte_dyn_epoch_swap_p99_ms",
        "99th percentile publish latency (octave resolution).",
        stats.publish_p99_ms);
}

void DynamicEnsemble::export_metrics(obs::Registry* registry) const {
  export_dyn_stats(stats(), registry);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  registry
      ->histogram("mpte_dyn_epoch_swap_us",
                  "Publish (epoch swap) latency in microseconds "
                  "(log2 buckets).")
      .merge_from(publish_us_);
}

}  // namespace mpte::dyn
