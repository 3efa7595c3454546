// ProfilingHooks: a ClusterHooks decorator that accumulates per-phase
// round timings (compute / audit / deliver) from the round_profile hook,
// forwarding every other hook to an optional inner implementation — so a
// bench can profile a checkpointed run by wrapping the ckpt::Coordinator
// without the Cluster growing a second hooks slot.
//
// Header-only and layered above mpte_mpc (it needs mpc::ClusterHooks);
// lives in src/obs/ because it is observability machinery, not model
// machinery. See docs/observability.md.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "mpc/cluster.hpp"
#include "obs/metrics.hpp"

namespace mpte::obs {

class ProfilingHooks : public mpc::ClusterHooks {
 public:
  /// Wraps `inner` (nullptr for profiling only). Non-owning.
  explicit ProfilingHooks(mpc::ClusterHooks* inner = nullptr)
      : inner_(inner) {}

  std::optional<mpc::MachineId> crash_rank(std::size_t round) override {
    return inner_ != nullptr ? inner_->crash_rank(round) : std::nullopt;
  }

  void round_profile(std::size_t round, const RoundProfile& profile) override {
    ++totals_.rounds;
    totals_.compute_seconds += profile.compute_seconds;
    totals_.audit_seconds += profile.audit_seconds;
    totals_.deliver_seconds += profile.deliver_seconds;
    PhaseTotals& labeled = by_label_[std::string(profile.label)];
    ++labeled.rounds;
    labeled.compute_seconds += profile.compute_seconds;
    labeled.audit_seconds += profile.audit_seconds;
    labeled.deliver_seconds += profile.deliver_seconds;
    if (inner_ != nullptr) inner_->round_profile(round, profile);
  }

  void round_committed(mpc::Cluster& cluster, std::size_t round) override {
    if (inner_ != nullptr) inner_->round_committed(cluster, round);
  }

  struct PhaseTotals {
    std::size_t rounds = 0;
    double compute_seconds = 0.0;
    double audit_seconds = 0.0;
    double deliver_seconds = 0.0;

    double total_seconds() const {
      return compute_seconds + audit_seconds + deliver_seconds;
    }
  };

  const PhaseTotals& totals() const { return totals_; }
  /// Per-round-label breakdown (label -> accumulated phase timings).
  const std::map<std::string, PhaseTotals>& by_label() const {
    return by_label_;
  }

  /// Exports mpte_mpc_profile_rounds_total plus the
  /// mpte_mpc_profile_{compute,audit,deliver}_seconds_total gauges and
  /// their per-label variants (label="...").
  void export_metrics(Registry* registry) const {
    registry
        ->counter("mpte_mpc_profile_rounds_total",
                  "Rounds attributed by the profiling hooks.")
        .set(totals_.rounds);
    const auto set = [registry](const char* phase, double seconds,
                                const Labels& labels) {
      registry
          ->gauge(std::string("mpte_mpc_profile_") + phase + "_seconds_total",
                  std::string("Wall-clock attributed to the ") + phase +
                      " phase of run_round.",
                  labels)
          .set(seconds);
    };
    set("compute", totals_.compute_seconds, {});
    set("audit", totals_.audit_seconds, {});
    set("deliver", totals_.deliver_seconds, {});
    for (const auto& [label, t] : by_label_) {
      const Labels labels{{"label", label}};
      set("compute", t.compute_seconds, labels);
      set("audit", t.audit_seconds, labels);
      set("deliver", t.deliver_seconds, labels);
    }
  }

  void reset() {
    totals_ = PhaseTotals{};
    by_label_.clear();
  }

 private:
  mpc::ClusterHooks* inner_;
  PhaseTotals totals_;
  std::map<std::string, PhaseTotals> by_label_;
};

}  // namespace mpte::obs
