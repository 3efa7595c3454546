// The checkpoint/crash coordinator: the concrete ClusterHooks.
//
// A Coordinator owns a FaultPlan (which rank crashes at which round) and
// the CheckpointPolicy from ClusterConfig (where to snapshot, and how
// often). Attach it with cluster.set_hooks(&coordinator); it then
//   - throws RankCrashed at scheduled crash rounds,
//   - with a policy directory set, snapshots the cluster after every
//     every_k-th committed round, atomically, keeping the newest two
//     files (one to restore, one to fall back to if the newest is
//     unreadable).
//
// Recovery: restore_latest() loads the newest readable snapshot into the
// cluster (corrupted files are skipped), or resets the cluster to the
// start when none is usable or checkpointing is off. A crash that already
// fired stays consumed across the restore — it must not re-fire, or
// recovery would loop forever.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ckpt/fault.hpp"
#include "ckpt/snapshot.hpp"
#include "mpc/cluster.hpp"

namespace mpte::ckpt {

class Coordinator : public mpc::ClusterHooks {
 public:
  explicit Coordinator(mpc::CheckpointPolicy policy, FaultPlan plan = {});

  /// Convenience: policy comes from the cluster's own config.
  static Coordinator for_cluster(const mpc::Cluster& cluster,
                                 FaultPlan plan = {}) {
    return Coordinator(cluster.config().checkpoint, std::move(plan));
  }

  // ClusterHooks:
  std::optional<mpc::MachineId> crash_rank(std::size_t round) override;
  void round_committed(mpc::Cluster& cluster, std::size_t round) override;

  /// Restores the newest readable snapshot into `cluster`, or resets it to
  /// the start when there is none. Updates the cluster's resilience
  /// counters (recoveries, recovery_seconds).
  void restore_latest(mpc::Cluster& cluster);

  /// Newest readable snapshot in the policy directory; kUnavailable if
  /// checkpointing is off or the directory holds none, the last decode
  /// Status if all are corrupt.
  Result<Snapshot> load_latest() const;

  /// Snapshot files in `dir`, oldest first.
  static std::vector<std::string> snapshot_paths(const std::string& dir);

  /// Status of the most recent snapshot write (ok until one fails; a
  /// failed write never aborts the run, it only surfaces here).
  const Status& last_write_status() const { return last_write_status_; }

 private:
  Status write_snapshot(mpc::Cluster& cluster);

  mpc::CheckpointPolicy policy_;
  FaultPlan plan_;
  Status last_write_status_;
};

}  // namespace mpte::ckpt
