// Deterministic crash injection for the MPC simulator.
//
// A FaultPlan is a schedule of rank crashes, each at a round, consulted by
// Cluster::run_round through the ClusterHooks interface (ckpt::Coordinator
// adapts one to the other). A crash is the one fault the simulator
// injects: it is what a snapshot exists to survive, and ipc::WorkerLost
// reaches the same recovery loop as a real one.
//
// A crash is consumed when it fires: a worker that died and was replaced
// does not die again at the same round, which is what lets crash recovery
// terminate.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "mpc/cluster.hpp"

namespace mpte::ckpt {

/// A replayable schedule of injected rank crashes.
class FaultPlan {
 public:
  void add_crash(std::size_t round, mpc::MachineId rank);

  /// First pending crash scheduled for `round`, in the order added; removes
  /// it from the schedule.
  std::optional<mpc::MachineId> take_crash(std::size_t round);

 private:
  struct Crash {
    std::size_t round;
    mpc::MachineId rank;
  };
  std::vector<Crash> pending_;
};

}  // namespace mpte::ckpt
