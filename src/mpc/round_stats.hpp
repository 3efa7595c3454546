// Cost accounting for simulated MPC executions.
//
// MPC algorithm efficiency is measured by three quantities (Section 1.1 of
// the paper): the number of rounds, the local memory per machine, and the
// total space. RoundStats records all three per round and in aggregate so
// that benches can report them and tests can assert the paper's bounds
// (O(1) rounds, O((nd)^eps) local, near-linear total).
//
// Additionally, every send is attributed to a *channel* (the typed
// Channel<T>'s name, the broadcast key, or "(untyped)" for raw sends), so
// a run can report which logical stream — grid broadcast, edge shuffle,
// FJLT transpose — dominates communication. Per round, the per-channel
// bytes sum exactly to total_message_bytes.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mpte::obs {
class Registry;
}  // namespace mpte::obs

namespace mpte::mpc {

/// Channel name under which MachineContext::send files payloads that were
/// not sent through a typed channel (or an otherwise-named stream).
inline constexpr const char* kUntypedChannel = "(untyped)";

/// Costs of a single round.
struct RoundRecord {
  /// Optional algorithm-supplied label ("fjlt/apply-D", "sort/route", ...).
  std::string label;
  /// Largest number of bytes any single machine sent this round.
  std::size_t max_sent_bytes = 0;
  /// Largest number of bytes any single machine received this round.
  std::size_t max_recv_bytes = 0;
  /// Sum of all message bytes exchanged this round (communication volume).
  std::size_t total_message_bytes = 0;
  /// Largest per-machine residency (store + inbox) at the end of the round.
  std::size_t max_resident_bytes = 0;
  /// Sum of residencies over machines at the end of the round (total space).
  std::size_t total_resident_bytes = 0;
  /// Model-constraint breaches observed this round (send/receive/residency
  /// over local memory). Nonzero only when enforcement is off — with
  /// enforcement on, the first breach throws and the round is not
  /// recorded.
  std::size_t violations = 0;
  /// Bytes sent this round keyed by channel name. Values sum to
  /// total_message_bytes (every send is attributed to some channel).
  std::map<std::string, std::size_t> channel_bytes;
};

/// Fault-tolerance cost accounting (see src/ckpt/). Kept separate from the
/// per-round records because these events — checkpoint writes, injected
/// crashes, recoveries — happen *around* rounds, not inside them, and must
/// survive a stats rollback (a restored run still remembers what recovery
/// cost it).
struct ResilienceCounters {
  /// Snapshots written, their cumulative encoded size, and wall-clock cost.
  std::size_t checkpoints_written = 0;
  std::size_t checkpoint_bytes = 0;
  double checkpoint_seconds = 0.0;
  /// Times a crash was recovered by restoring a snapshot (or resetting to
  /// the start when none existed), and the restore wall-clock cost.
  std::size_t recoveries = 0;
  double recovery_seconds = 0.0;
  /// Rounds fast-forwarded after a restore instead of re-executed.
  std::size_t rounds_replayed = 0;
  /// Injected rank crashes thrown.
  std::size_t crashes_injected = 0;

  bool any() const {
    return checkpoints_written || recoveries || rounds_replayed ||
           crashes_injected;
  }
};

/// Aggregate statistics over an execution.
class RoundStats {
 public:
  void record(RoundRecord record);

  /// Number of rounds executed so far.
  std::size_t rounds() const { return records_.size(); }

  const std::vector<RoundRecord>& records() const { return records_; }

  /// Peak per-machine residency over all rounds — the empirical "local
  /// memory" of the run.
  std::size_t peak_local_bytes() const { return peak_local_bytes_; }

  /// Peak sum of residencies — the empirical "total space" of the run.
  std::size_t peak_total_bytes() const { return peak_total_bytes_; }

  /// Peak per-machine bytes sent or received in one round.
  std::size_t peak_round_io_bytes() const { return peak_round_io_bytes_; }

  /// Total constraint breaches recorded (only populated when
  /// enforce_limits is off; see RoundRecord::violations).
  std::size_t total_violations() const { return total_violations_; }

  /// Aggregate bytes per channel over all rounds, sorted by descending
  /// bytes (ties broken by name) — ready for "top K channels" reports.
  std::vector<std::pair<std::string, std::size_t>> channel_totals() const;

  /// Fault-tolerance counters (checkpoints, recoveries, injected crashes).
  ResilienceCounters& resilience() { return resilience_; }
  const ResilienceCounters& resilience() const { return resilience_; }

  /// Rolls the per-round history back to exactly `records` (peaks, totals,
  /// and channel aggregates are recomputed from them), preserving the
  /// resilience counters. Snapshot restore uses this so a recovered run's
  /// round accounting matches the fault-free run while still reporting
  /// what the recovery cost.
  void rollback(std::vector<RoundRecord> records);

  /// Exports every aggregate this class tracks into `registry` under the
  /// mpte_mpc_* / mpte_ckpt_* names (docs/observability.md): round count,
  /// peak local/total/round-io bytes, violation and communication totals,
  /// per-channel byte counters (label channel="..."), a log2 histogram of
  /// per-round message volume, and the resilience counters. summary() and
  /// the CLI's --metrics-out both render from this export, so the two
  /// surfaces can never disagree about a count.
  void export_metrics(obs::Registry* registry) const;

  /// Human-readable multi-line summary for examples and benches. Aggregate
  /// numbers are read back from an export_metrics() registry (single
  /// source of truth); only the per-round lines come straight from the
  /// records.
  std::string summary() const;

 private:
  std::vector<RoundRecord> records_;
  ResilienceCounters resilience_;
  std::size_t peak_local_bytes_ = 0;
  std::size_t peak_total_bytes_ = 0;
  std::size_t peak_round_io_bytes_ = 0;
  std::size_t total_violations_ = 0;
  std::map<std::string, std::size_t> channel_totals_;
};

}  // namespace mpte::mpc
