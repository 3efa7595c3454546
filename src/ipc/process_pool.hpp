// Worker pool for the multi-process MPC backend.
//
// spawn() creates, per rank, a shared-memory ShmChannel (mapped before
// fork so both processes share it) plus a Unix-domain socketpair that
// carries no data — the channel's liveness probe — and forks one child
// that runs the supplied entry function. The child must _exit
// (never return: running atexit handlers or flushing inherited stdio in
// a forked child would corrupt the parent's world).
//
// The pool owns the parent-side fds, the channels, and the pids. Its
// destructor SIGKILLs and reaps anything still running, so no code path
// — including exceptions thrown mid-round — can leak a zombie.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "common/status.hpp"
#include "ipc/shm_ring.hpp"
#include "mpc/machine.hpp"

namespace mpte::ipc {

class ProcessPool {
 public:
  /// Runs rank-side; must not return (call _exit). `channel` is the
  /// worker's end of its duplex channel, already bound to Side::kWorker.
  using WorkerMain =
      std::function<void(mpc::MachineId rank, ShmChannel& channel)>;

  /// Forks `ranks` workers over `channel`-configured channels. On a
  /// failure the already-spawned workers are killed and kUnavailable is
  /// returned.
  static Result<ProcessPool> spawn(std::size_t ranks,
                                   const ShmChannel::Config& channel,
                                   const WorkerMain& worker_main);

  ProcessPool(ProcessPool&& other) noexcept;
  ProcessPool& operator=(ProcessPool&&) = delete;
  ProcessPool(const ProcessPool&) = delete;
  ProcessPool& operator=(const ProcessPool&) = delete;
  ~ProcessPool();

  std::size_t size() const { return workers_.size(); }

  /// Coordinator-side endpoint of rank's channel.
  ShmChannel& channel(mpc::MachineId rank) { return workers_[rank].channel; }

  /// Non-blocking death check: true once rank's child has been reaped
  /// (here or earlier). Records the exit status.
  bool try_reap(mpc::MachineId rank);

  /// waitpid status of a reaped worker (meaningless before try_reap /
  /// join_all observed the exit).
  int exit_status(mpc::MachineId rank) const {
    return workers_[rank].exit_status;
  }

  /// SIGKILLs and reaps every remaining worker, closing all fds and
  /// waking any ring waiter.
  /// Idempotent; called by the destructor.
  void kill_all();

  /// Waits up to `timeout_ms` for every worker to exit on its own, then
  /// SIGKILLs stragglers. Always reaps everything; returns non-OK when
  /// any worker had to be killed or exited non-zero.
  Status join_all(int timeout_ms);

 private:
  struct Worker {
    pid_t pid = -1;
    /// Coordinator end of the rank's socketpair (-1 once closed).
    int fd = -1;
    ShmChannel channel;
    bool reaped = false;
    int exit_status = 0;
  };

  ProcessPool() = default;

  std::vector<Worker> workers_;
};

}  // namespace mpte::ipc
