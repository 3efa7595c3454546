// Crash-recovery driver loop — the one recovery path.
//
// run_with_recovery re-runs a pipeline until it finishes without a crash.
// On RankCrashed (an injected crash, or an ipc::WorkerLost) it restores the
// newest snapshot through the Coordinator — which resets the cluster to
// the start when there is none or checkpointing is off — and calls the
// body again; the restored cluster fast-forwards the already-committed
// rounds, so the re-driven pipeline produces state — and output — byte-
// identical to a fault-free run. The body must therefore be *re-enterable*:
// calling it again after resume_from must issue the same run_round
// sequence, and host-side code between rounds must honor
// fast_forwarding(). mpc_embed and the four MPC applications share such a
// driver (core/mpc_stages.hpp).
//
// When the restore budget runs out the Status code is kAborted — terminal,
// unlike the retryable kUnavailable.
#pragma once

#include <string>
#include <type_traits>
#include <utility>

#include "ckpt/manager.hpp"
#include "common/status.hpp"
#include "mpc/cluster.hpp"

namespace mpte::ckpt {

/// Runs `body` (any callable returning Status or Result<T>, constructible
/// from a Status) under crash recovery. Returns the body's result, or a
/// kAborted Status/Result after `max_recoveries` restores — the bound on a
/// schedule that crashes faster than the checkpoints make progress.
template <typename Fn>
auto run_with_recovery(mpc::Cluster& cluster, Coordinator& coordinator,
                       Fn&& body, int max_recoveries = 8)
    -> std::invoke_result_t<Fn&> {
  using R = std::invoke_result_t<Fn&>;
  int recoveries = 0;
  for (;;) {
    try {
      return body();
    } catch (const mpc::RankCrashed& crash) {
      if (recoveries >= max_recoveries) {
        return R(Status(
            StatusCode::kAborted,
            std::string("crash recovery exhausted after ") +
                std::to_string(recoveries) + " restores (last: " +
                crash.what() + ")"));
      }
      ++recoveries;
      coordinator.restore_latest(cluster);
    }
  }
}

}  // namespace mpte::ckpt
