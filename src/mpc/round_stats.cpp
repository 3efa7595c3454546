#include "mpc/round_stats.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"

namespace mpte::mpc {

void RoundStats::record(RoundRecord record) {
  peak_local_bytes_ = std::max(peak_local_bytes_, record.max_resident_bytes);
  peak_total_bytes_ = std::max(peak_total_bytes_, record.total_resident_bytes);
  peak_round_io_bytes_ = std::max(
      {peak_round_io_bytes_, record.max_sent_bytes, record.max_recv_bytes});
  total_violations_ += record.violations;
  for (const auto& [channel, bytes] : record.channel_bytes) {
    channel_totals_[channel] += bytes;
  }
  records_.push_back(std::move(record));
}

void RoundStats::rollback(std::vector<RoundRecord> records) {
  records_.clear();
  peak_local_bytes_ = 0;
  peak_total_bytes_ = 0;
  peak_round_io_bytes_ = 0;
  total_violations_ = 0;
  channel_totals_.clear();
  records_.reserve(records.size());
  for (auto& r : records) record(std::move(r));
}

std::vector<std::pair<std::string, std::size_t>> RoundStats::channel_totals()
    const {
  std::vector<std::pair<std::string, std::size_t>> totals(
      channel_totals_.begin(), channel_totals_.end());
  std::sort(totals.begin(), totals.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return totals;
}

void RoundStats::export_metrics(obs::Registry* registry) const {
  using obs::Labels;
  registry->counter("mpte_mpc_rounds_total", "MPC rounds executed.")
      .set(records_.size());
  registry
      ->gauge("mpte_mpc_peak_local_bytes",
              "Peak per-machine residency over all rounds (empirical local "
              "memory).")
      .set(static_cast<double>(peak_local_bytes_));
  registry
      ->gauge("mpte_mpc_peak_total_bytes",
              "Peak sum of machine residencies (empirical total space).")
      .set(static_cast<double>(peak_total_bytes_));
  registry
      ->gauge("mpte_mpc_peak_round_io_bytes",
              "Peak per-machine bytes sent or received in one round.")
      .set(static_cast<double>(peak_round_io_bytes_));
  registry
      ->counter("mpte_mpc_violations_total",
                "Model-constraint breaches recorded (enforcement off).")
      .set(total_violations_);
  std::size_t message_bytes = 0;
  auto& volume_histogram = registry->histogram(
      "mpte_mpc_round_message_bytes",
      "Per-round communication volume (log2 buckets).");
  for (const auto& r : records_) {
    message_bytes += r.total_message_bytes;
    volume_histogram.observe(r.total_message_bytes);
  }
  registry
      ->counter("mpte_mpc_message_bytes_total",
                "Message bytes exchanged over all rounds.")
      .set(message_bytes);
  for (const auto& [channel, bytes] : channel_totals_) {
    registry
        ->counter("mpte_mpc_channel_bytes_total",
                  "Message bytes per named channel.",
                  Labels{{"channel", channel}})
        .set(bytes);
  }
  registry
      ->counter("mpte_ckpt_checkpoints_total", "Snapshots written.")
      .set(resilience_.checkpoints_written);
  registry
      ->counter("mpte_ckpt_checkpoint_bytes_total",
                "Cumulative encoded snapshot size.")
      .set(resilience_.checkpoint_bytes);
  registry
      ->gauge("mpte_ckpt_checkpoint_seconds_total",
              "Wall-clock spent writing snapshots.")
      .set(resilience_.checkpoint_seconds);
  registry
      ->counter("mpte_ckpt_recoveries_total",
                "Crash recoveries (snapshot restore or reset-to-start).")
      .set(resilience_.recoveries);
  registry
      ->gauge("mpte_ckpt_recovery_seconds_total",
              "Wall-clock spent restoring snapshots.")
      .set(resilience_.recovery_seconds);
  registry
      ->counter("mpte_ckpt_rounds_replayed_total",
                "Rounds fast-forwarded after restore instead of re-executed.")
      .set(resilience_.rounds_replayed);
  registry
      ->counter("mpte_ckpt_crashes_injected_total", "Injected rank crashes.")
      .set(resilience_.crashes_injected);
}

std::string RoundStats::summary() const {
  // Aggregates render from the exported registry — the same numbers the
  // Prometheus text (--metrics-out, serve `metrics`) reports.
  obs::Registry registry;
  export_metrics(&registry);
  std::ostringstream out;
  out << "rounds=" << registry.counter_value("mpte_mpc_rounds_total")
      << " peak_local="
      << static_cast<std::size_t>(
             registry.gauge_value("mpte_mpc_peak_local_bytes"))
      << "B peak_total="
      << static_cast<std::size_t>(
             registry.gauge_value("mpte_mpc_peak_total_bytes"))
      << "B peak_round_io="
      << static_cast<std::size_t>(
             registry.gauge_value("mpte_mpc_peak_round_io_bytes"))
      << "B";
  const std::uint64_t violations =
      registry.counter_value("mpte_mpc_violations_total");
  if (violations > 0) out << " violations=" << violations;
  out << "\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    out << "  round " << i << (r.label.empty() ? "" : " [" + r.label + "]")
        << ": sent<=" << r.max_sent_bytes << "B recv<=" << r.max_recv_bytes
        << "B volume=" << r.total_message_bytes
        << "B local<=" << r.max_resident_bytes << "B\n";
  }
  // Per-channel totals, read back from the registry's labeled counters and
  // re-sorted descending by bytes (ties by name) for the report.
  std::vector<std::pair<std::string, std::size_t>> channels;
  for (const auto& sample : registry.samples()) {
    if (sample.name != "mpte_mpc_channel_bytes_total") continue;
    channels.emplace_back(sample.labels.at("channel"),
                          static_cast<std::size_t>(sample.value));
  }
  std::sort(channels.begin(), channels.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (!channels.empty()) {
    out << "  channels:";
    for (const auto& [channel, bytes] : channels) {
      out << " " << channel << "=" << bytes << "B";
    }
    out << "\n";
  }
  if (resilience_.any()) {
    out << "  ckpt: checkpoints="
        << registry.counter_value("mpte_ckpt_checkpoints_total") << " ("
        << registry.counter_value("mpte_ckpt_checkpoint_bytes_total") << "B, "
        << registry.gauge_value("mpte_ckpt_checkpoint_seconds_total") * 1e3
        << "ms)"
        << " recoveries=" << registry.counter_value("mpte_ckpt_recoveries_total")
        << " (" << registry.gauge_value("mpte_ckpt_recovery_seconds_total") * 1e3
        << "ms)"
        << " replayed="
        << registry.counter_value("mpte_ckpt_rounds_replayed_total")
        << " crashes="
        << registry.counter_value("mpte_ckpt_crashes_injected_total")
        << "\n";
  }
  return out.str();
}

}  // namespace mpte::mpc
