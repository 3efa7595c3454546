// The MPC cluster simulator.
//
// A Cluster owns M machines and executes *rounds*: every machine runs the
// same step function (SPMD, as in MapReduce/MPI) against its own state,
// queueing messages; at the round boundary the runtime audits the model's
// constraints — per-machine bytes sent <= local memory, bytes received <=
// local memory, residency <= local memory — then delivers all messages.
// Violations throw MpcViolation when enforcement is on, so an algorithm
// that exceeds the fully-scalable regime fails loudly in tests rather than
// silently consuming unrealistic resources. With enforcement off the
// breaches are still counted (RoundRecord::violations) so a run can report
// how far outside the model it strayed.
//
// Payloads are mpc::Buffer slabs: queueing, delivering, and storing a
// message shares one slab (refcount) rather than deep-copying, so e.g. a
// fan-out broadcast materializes its blob exactly once no matter how many
// machines receive it. Sends are attributed to named *channels* (see
// mpc/channel.hpp) and RoundStats reports bytes per channel.
//
// Machine steps within a round may execute concurrently on host threads
// (ClusterConfig::num_threads): steps are SPMD and touch only their own
// Machine and their own outbox row, so threading them is race-free by
// construction, and auditing + delivery stay in rank order, so runs remain
// bit-reproducible at every thread count. This is sound because MPC prices
// rounds and communication, not intra-round interleaving — see
// docs/mpc-model.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "mpc/machine.hpp"
#include "mpc/round_stats.hpp"
#include "mpc/step.hpp"

namespace mpte::obs {
class Registry;
}  // namespace mpte::obs

namespace mpte::mpc {

/// Thrown when an execution breaks an MPC model constraint.
class MpcViolation : public MpteError {
 public:
  explicit MpcViolation(const std::string& what) : MpteError(what) {}
};

/// Thrown by run_round when the attached ClusterHooks inject a rank crash —
/// the simulated analogue of a worker dying between rounds. Caught by
/// recovery drivers (ckpt::run_with_recovery), never by the mpc layer.
class RankCrashed : public MpteError {
 public:
  RankCrashed(MachineId rank, std::size_t round)
      : RankCrashed(rank, round,
                    "machine " + std::to_string(rank) +
                        " crashed entering round " + std::to_string(round)) {}

  MachineId rank() const { return rank_; }
  std::size_t round() const { return round_; }

 protected:
  /// For derived crash kinds (ipc::WorkerLost) that carry their own
  /// message but must still be caught by the same recovery drivers.
  RankCrashed(MachineId rank, std::size_t round, const std::string& what)
      : MpteError(what), rank_(rank), round_(round) {}

 private:
  MachineId rank_;
  std::size_t round_;
};

/// When the attached checkpoint coordinator snapshots cluster state: with
/// `directory` set, after every `every_k`-th committed round; with it
/// empty, never. Plain data hung off ClusterConfig; the mpc layer itself
/// never touches disk — src/ckpt/ interprets the policy (see
/// ckpt/manager.hpp).
struct CheckpointPolicy {
  /// Directory snapshots are written into (created on demand).
  std::string directory;
  std::size_t every_k = 1;

  bool enabled() const { return !directory.empty(); }
};

/// Which substrate executes machine steps. kInProcess simulates every
/// machine inside this process (threaded over ranks); kMultiProcess runs
/// one persistent OS worker process per rank (src/ipc/) and ships each
/// round's named step to it over a shared-memory ring. The backends are
/// byte-identical: audits, delivery, and stats all run on the same
/// coordinator-side code path, so the golden fingerprints and
/// per-channel byte totals never depend on the choice. See
/// docs/mpc-model.md "The process backend".
enum class Backend : std::uint8_t { kInProcess = 0, kMultiProcess = 1 };

/// Knobs for the multi-process backend; ignored under kInProcess.
struct IpcOptions {
  /// Per-direction ring data capacity (rounded up to a power of two) and
  /// per-direction blob arena capacity, per worker. A frame larger than
  /// the ring streams through it in chunks while the peer drains — see
  /// docs/ipc-transport.md.
  std::size_t shm_ring_bytes = 1u << 20;
  std::size_t shm_arena_bytes = 4u << 20;
  /// Wall-clock budget for one round barrier (ship every worker its step,
  /// execute it, collect every result frame). A worker that misses it is
  /// lost: run_round throws ipc::WorkerLost (Cause::kDeadline).
  int round_deadline_ms = 60'000;
  /// Test-only fault injection: worker `kill_rank` _exits without sending
  /// its result frame when executing round `kill_at_round` (< 0 = off).
  /// Fires once per executor, so a recovered run passes the round.
  std::int64_t kill_at_round = -1;
  MachineId kill_rank = 0;
};

/// Static description of the simulated cluster.
struct ClusterConfig {
  /// Number of machines M.
  std::size_t num_machines = 4;
  /// Local memory per machine s, in bytes. In the fully scalable regime
  /// s = O((nd)^eps); see local_memory_for_input() below.
  std::size_t local_memory_bytes = 1 << 20;
  /// If true (default), constraint violations throw MpcViolation. Turning
  /// this off still records violation counts and stats — useful for
  /// measuring how much an algorithm *would* need.
  bool enforce_limits = true;
  /// Host threads executing machine steps within a round. 0 = auto
  /// (MPTE_THREADS env var, else hardware concurrency); 1 = the serial
  /// path. Results are identical at every setting; only wall-clock
  /// changes. See par::parallel_for.
  std::size_t num_threads = 0;
  /// Round-level checkpointing policy, interpreted by an attached
  /// ckpt::Coordinator (off by default; the Cluster alone never snapshots).
  CheckpointPolicy checkpoint{};
  /// Execution substrate for machine steps (see Backend above).
  Backend backend = Backend::kInProcess;
  /// Multi-process transport knobs (used only when backend selects it).
  IpcOptions ipc{};
};

/// Suggested local memory (bytes) for an input of `input_bytes` at exponent
/// eps: ceil(input_bytes^eps) * word, floored at `min_bytes` so that tiny
/// test inputs still admit nontrivial machines.
std::size_t local_memory_for_input(std::size_t input_bytes, double eps,
                                   std::size_t min_bytes = 4096);

/// One machine's queued output for a round: payload fragments per
/// destination plus per-channel byte attribution. Owned by the Cluster,
/// written only by that machine's step (race-free under threading).
struct Outbox {
  /// fragments[dst] = payloads queued to dst this round, in send order.
  std::vector<std::vector<Buffer>> fragments;
  /// Bytes queued this round keyed by channel name.
  std::map<std::string, std::size_t> channel_bytes;
};

/// Per-machine handle passed to step functions: local state access plus
/// message sending. Only valid during the round that supplied it.
class MachineContext {
 public:
  MachineContext(MachineId id, std::size_t num_machines, Machine& machine,
                 Outbox& outbox)
      : id_(id),
        num_machines_(num_machines),
        machine_(machine),
        outbox_(outbox) {}

  MachineId id() const { return id_; }
  std::size_t num_machines() const { return num_machines_; }

  LocalStore& store() { return machine_.store; }
  const LocalStore& store() const { return machine_.store; }

  /// Messages delivered at the previous round boundary, ordered by source
  /// rank (deterministic).
  const std::vector<Message>& inbox() const { return machine_.inbox; }

  /// Queues `payload` for delivery to machine `to` at the round boundary,
  /// sharing the slab (no copy). `channel` attributes the bytes in
  /// RoundStats; empty means kUntypedChannel. Typed code should go
  /// through Channel<T>::send, which names the channel for you.
  void send(MachineId to, Buffer payload, std::string_view channel = {});

  /// Queues owned bytes (wrapped into a Buffer without copying).
  void send(MachineId to, std::vector<std::uint8_t> payload,
            std::string_view channel = {}) {
    send(to, Buffer(std::move(payload)), channel);
  }

  /// Convenience: queue the contents of a Serializer.
  void send(MachineId to, Serializer serializer,
            std::string_view channel = {}) {
    send(to, Buffer(serializer.take()), channel);
  }

 private:
  MachineId id_;
  std::size_t num_machines_;
  Machine& machine_;
  Outbox& outbox_;
};

class Cluster;

/// Strategy that executes the machine steps of one round, leaving each
/// rank's post-step store in machines[rank] and its queued sends in
/// outboxes[rank]. The in-process path is inlined in run_round; the
/// multi-process backend (src/ipc/) implements this interface. Everything
/// *after* step execution — quota audits, channel merging, delivery,
/// stats — is shared coordinator-side code, which is what makes the two
/// backends byte-identical by construction.
class RoundExecutor {
 public:
  virtual ~RoundExecutor() = default;

  /// Executes `spec` for every rank of round `round`. Must either leave
  /// machines/outboxes in the exact post-step state the in-process path
  /// would produce, or throw without mutating them (so a failed round can
  /// be retried from a checkpoint).
  virtual void run_steps(const ClusterConfig& config,
                         std::vector<Machine>& machines,
                         std::vector<Outbox>& outboxes, const StepSpec& spec,
                         std::size_t round) = 0;

  /// Mirrors the executor's transport counters into `registry` under the
  /// mpte_ipc_* names (docs/observability.md).
  virtual void export_metrics(obs::Registry& registry) const = 0;

  /// Any state workers hold resident (stores shipped across rounds) is no
  /// longer authoritative — the coordinator rewrote its machines out of
  /// band (resume_from, reset_to_start). Persistent backends must tear
  /// down or resync; the default has nothing to do.
  virtual void invalidate_workers() {}
};

/// Builds the multi-process executor. Declared here, defined in
/// src/ipc/proc_backend.cpp: the mpc layer stays free of fork/socket
/// code, and the two static libraries link cyclically (mpte_mpc needs
/// this factory, mpte_ipc needs the cluster machinery).
std::unique_ptr<RoundExecutor> make_multiprocess_executor();

/// Crash-injection + checkpointing interface consulted by run_round on
/// live (non-fast-forwarded) rounds only. The mpc layer defines the
/// interface; src/ckpt/ provides the concrete Coordinator (a crash
/// schedule + snapshot writer). All calls happen on the driver thread.
class ClusterHooks {
 public:
  virtual ~ClusterHooks() = default;

  /// Consulted at round entry. Returning a rank makes run_round throw
  /// RankCrashed before executing any step. Implementations should
  /// consume the event (fire it once) so recovery can progress past it.
  virtual std::optional<MachineId> crash_rank(std::size_t) {
    return std::nullopt;
  }

  /// Wall-clock attribution of one committed round to the runtime's three
  /// phases: executing machine steps (compute), auditing send/recv quotas
  /// and merging channel attributions (audit), and coalescing + delivering
  /// messages + auditing residency (deliver). Purely observational — the
  /// timings never feed back into execution.
  struct RoundProfile {
    std::string_view label;
    double compute_seconds = 0.0;
    double audit_seconds = 0.0;
    double deliver_seconds = 0.0;
  };

  /// Called just before round_committed with the round's phase timings.
  /// Benches attach an obs::ProfilingHooks (src/obs/profile.hpp) to
  /// attribute time to compute vs. routing vs. audit without touching
  /// algorithm code. Timings are only measured while hooks are attached,
  /// so the hook-free hot path never reads the clock.
  virtual void round_profile(std::size_t /*round*/, const RoundProfile&) {}

  /// Called after a round is audited, delivered, and recorded. The
  /// checkpoint coordinator snapshots here: the boundary "just after
  /// run_round(round) returned" is exactly where resume_from re-enters.
  virtual void round_committed(Cluster& /*cluster*/, std::size_t /*round*/) {}
};

/// Restorable execution state — what a snapshot captures (ckpt/snapshot.hpp
/// defines the on-disk form). `records` double as the round counter:
/// resume_from skips exactly records.size() run_round calls.
struct ClusterState {
  std::vector<Machine> machines;
  std::vector<RoundRecord> records;
  Buffer driver_note;
};

/// The simulated cluster.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  std::size_t num_machines() const { return machines_.size(); }
  const ClusterConfig& config() const { return config_; }

  /// Executes one MPC round: run the spec's step on every machine, audit
  /// the model constraints, deliver messages. `label` tags the round in
  /// the stats; empty defaults to the spec's step name.
  void run_round(const StepSpec& spec, std::string label = "");

  /// Closure adapter: wraps `step` into a hosted (unnamed) StepSpec. Fine
  /// for tests and one-off in-process drivers. A closure cannot be shipped
  /// to a worker process, so under Backend::kMultiProcess run_round throws
  /// MpteError before executing anything; register the step with
  /// mpc::RegisterStep and run it by name instead.
  void run_round(const Step& step, std::string label = "") {
    StepSpec spec;
    spec.hosted = step;
    run_round(spec, std::move(label));
  }

  /// Host-side access to a machine's store. Loading the initial input and
  /// reading the final output happen through this (the model assumes input
  /// arrives distributed and output remains distributed; neither transfer
  /// counts as a round).
  LocalStore& store(MachineId id) { return machines_.at(id).store; }
  const LocalStore& store(MachineId id) const {
    return machines_.at(id).store;
  }

  const RoundStats& stats() const { return stats_; }
  RoundStats& stats() { return stats_; }

  // --- Fault tolerance (src/ckpt/; docs/mpc-model.md "Failure model") ---

  /// Attaches (nullptr detaches) the fault-injection / checkpointing
  /// hooks. Non-owning; the hooks must outlive their attachment.
  void set_hooks(ClusterHooks* hooks) { hooks_ = hooks; }
  ClusterHooks* hooks() const { return hooks_; }

  /// Copies the restorable state: map skeletons are copied, payload slabs
  /// are shared — immutable, so later rounds cannot corrupt the capture.
  ClusterState capture_state() const;

  /// Restores a captured/deserialized state and arms fast-forward: the
  /// next records.size() run_round calls are skipped (no steps, no hooks,
  /// no new stats records) because their effects are already in the
  /// restored stores. The driver then re-runs its pipeline from the top;
  /// host-side code between rounds keys off fast_forwarding() to suppress
  /// writes and to avoid decision-reads against fast-forwarded state.
  void resume_from(ClusterState state);

  /// Restores the pristine post-construction state — recovery when no
  /// snapshot exists yet. Resilience counters are preserved.
  void reset_to_start();

  /// True while resume_from's skip budget is unconsumed.
  bool fast_forwarding() const { return skip_rounds_ > 0; }

  /// The driver's position in its round sequence: committed rounds minus
  /// the rounds resume_from still has to skip. Equal to stats().rounds()
  /// on a live run; on a resumed one it counts the fast-forwarded rounds
  /// as issued, so a round count taken against it matches the fault-free
  /// run's.
  std::size_t logical_rounds() const { return stats_.rounds() - skip_rounds_; }

  /// Driver-owned annotation included in every snapshot: pipelines record
  /// host-side decisions (chosen delta, retry attempt) here so a resumed
  /// run can bypass recomputing them from state it fast-forwards over.
  void set_driver_note(Buffer note) { driver_note_ = std::move(note); }
  const Buffer& driver_note() const { return driver_note_; }

  /// The backend executor, created lazily on the first multi-process
  /// round (nullptr until then, and always under kInProcess). Tests and
  /// the CLI reach through this for transport stats and metrics.
  RoundExecutor* round_executor() const { return executor_.get(); }

 private:
  ClusterConfig config_;
  std::vector<Machine> machines_;
  RoundStats stats_;
  ClusterHooks* hooks_ = nullptr;
  std::size_t skip_rounds_ = 0;
  Buffer driver_note_;
  /// Reusable per-machine outboxes: outboxes_[src].fragments[dst] holds the
  /// Buffers queued from src to dst this round. A member (not a run_round
  /// local) so the O(M²) vector skeleton is allocated once, not rebuilt
  /// every round; cells are cleared (capacity kept) between rounds.
  std::vector<Outbox> outboxes_;
  std::unique_ptr<RoundExecutor> executor_;
};

}  // namespace mpte::mpc
