#include "mpc/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace mpte::mpc {

std::size_t local_memory_for_input(std::size_t input_bytes, double eps,
                                   std::size_t min_bytes) {
  const double s =
      std::pow(std::max<double>(1.0, static_cast<double>(input_bytes)), eps);
  return std::max(min_bytes, static_cast<std::size_t>(std::ceil(s)));
}

void MachineContext::send(MachineId to, Buffer payload,
                          std::string_view channel) {
  if (to >= num_machines_) {
    throw MpcViolation("send: destination rank out of range");
  }
  if (channel.empty()) channel = kUntypedChannel;
  outbox_.channel_bytes[std::string(channel)] += payload.size();
  // Multiple sends to the same destination within a round are concatenated
  // at delivery; receivers see one message per (sender, round). Senders
  // that need framing write their own length prefixes (Serializer does).
  outbox_.fragments[to].push_back(std::move(payload));
}

namespace {

/// Collapses the fragments queued from one sender to one receiver into the
/// single delivered payload. The common case — one send — moves the Buffer
/// (shares the slab, zero copy); only genuine multi-send cells concatenate
/// into a fresh slab.
Buffer coalesce(std::vector<Buffer>& fragments) {
  if (fragments.size() == 1) return std::move(fragments.front());
  std::size_t total = 0;
  for (const auto& f : fragments) total += f.size();
  std::vector<std::uint8_t> joined;
  joined.reserve(total);
  for (const auto& f : fragments) {
    joined.insert(joined.end(), f.data(), f.data() + f.size());
  }
  return Buffer(std::move(joined));
}

}  // namespace

Cluster::Cluster(ClusterConfig config) : config_(config) {
  if (config_.num_machines == 0) {
    throw MpteError("Cluster: need at least one machine");
  }
  machines_.resize(config_.num_machines);
  outboxes_.resize(config_.num_machines);
  for (auto& row : outboxes_) row.fragments.resize(config_.num_machines);
}

ClusterState Cluster::capture_state() const {
  ClusterState state;
  state.machines = machines_;
  state.records = stats_.records();
  state.driver_note = driver_note_;
  return state;
}

void Cluster::resume_from(ClusterState state) {
  if (state.machines.size() != machines_.size()) {
    throw MpteError("resume_from: snapshot has " +
                    std::to_string(state.machines.size()) +
                    " machines, cluster has " +
                    std::to_string(machines_.size()));
  }
  machines_ = std::move(state.machines);
  skip_rounds_ = state.records.size();
  stats_.rollback(std::move(state.records));
  driver_note_ = std::move(state.driver_note);
  if (executor_) executor_->invalidate_workers();
}

void Cluster::reset_to_start() {
  for (auto& machine : machines_) {
    machine.store.clear();
    machine.inbox.clear();
  }
  skip_rounds_ = 0;
  stats_.rollback({});
  driver_note_ = Buffer();
  if (executor_) executor_->invalidate_workers();
}

void Cluster::run_round(const StepSpec& spec, std::string label) {
  if (label.empty()) label = spec.name;
  if (config_.backend == Backend::kMultiProcess && !spec.named()) {
    throw MpteError("round '" + label +
                    "': a hosted closure cannot run on the multi-process "
                    "backend; register the step with mpc::RegisterStep and "
                    "run it by name");
  }
  if (skip_rounds_ > 0) {
    // Fast-forward after resume_from: the restored state already contains
    // this round's effects, and its restored RoundRecord stands in for the
    // one a live execution would append. No steps, no hooks, no audits.
    --skip_rounds_;
    ++stats_.resilience().rounds_replayed;
    return;
  }
  const std::size_t round = stats_.rounds();
  if (hooks_ != nullptr) {
    if (const auto crashed = hooks_->crash_rank(round)) {
      ++stats_.resilience().crashes_injected;
      throw RankCrashed(*crashed, round);
    }
  }
  // Observation only: the span reads the clock and appends to the trace
  // ring; nothing here feeds back into the computation, so output stays
  // byte-identical with tracing on or off.
  const obs::Span span("mpc",
                       label.empty() ? std::string("round")
                                     : "round/" + label,
                       "round", round);
  // Phase timings for the round_profile hook; measured only when hooks are
  // attached so the hook-free path never reads the clock.
  using ProfileClock = std::chrono::steady_clock;
  const bool profiling = hooks_ != nullptr;
  ProfileClock::time_point t_start, t_stepped, t_audited, t_delivered;
  if (profiling) t_start = ProfileClock::now();
  const std::size_t m = machines_.size();
  // Reset the reusable outbox matrix; clear() keeps capacity, so rounds
  // after the first only allocate for payloads that outgrow last round's.
  for (auto& row : outboxes_) {
    for (auto& cell : row.fragments) cell.clear();
    row.channel_bytes.clear();
  }

  // Execute the machine steps. In-process: possibly concurrently — each
  // step touches only its own Machine and outbox row, so chunking the
  // rank range over threads is race-free. An exception from a step
  // (lowest rank wins, as in serial order) propagates after all steps
  // finish; the audit below never runs on a failed round. Multi-process:
  // the executor runs the named step in one worker process per rank and
  // leaves machines_/outboxes_ in the identical post-step state, so
  // everything below this block is backend-independent.
  auto& outboxes = outboxes_;
  if (config_.backend == Backend::kMultiProcess) {
    if (!executor_) executor_ = make_multiprocess_executor();
    executor_->run_steps(config_, machines_, outboxes_, spec, round);
  } else {
    // Resolve once (registry lookup or hosted closure) and share the Step
    // across threads — std::function invocation is const and race-free.
    const Step step = resolve_step(spec);
    par::parallel_for(
        0, m,
        [&](std::size_t begin, std::size_t end) {
          for (MachineId id = begin; id < end; ++id) {
            execute_rank_step(id, m, machines_[id], outboxes[id], step);
          }
        },
        config_.num_threads);
  }
  if (profiling) t_stepped = ProfileClock::now();

  RoundRecord record;
  record.label = std::move(label);

  // Audit send quotas, merge channel attributions (rank order, so the
  // resulting map is identical at every thread count), and compute
  // per-receiver volumes.
  std::vector<std::size_t> recv_bytes(m, 0);
  for (MachineId src = 0; src < m; ++src) {
    std::size_t sent = 0;
    for (MachineId dst = 0; dst < m; ++dst) {
      std::size_t bytes = 0;
      for (const auto& fragment : outboxes[src].fragments[dst]) {
        bytes += fragment.size();
      }
      sent += bytes;
      recv_bytes[dst] += bytes;
    }
    for (const auto& [channel, bytes] : outboxes[src].channel_bytes) {
      record.channel_bytes[channel] += bytes;
    }
    record.max_sent_bytes = std::max(record.max_sent_bytes, sent);
    record.total_message_bytes += sent;
    if (sent > config_.local_memory_bytes) {
      if (config_.enforce_limits) {
        throw MpcViolation("round '" + record.label + "': machine " +
                           std::to_string(src) + " sent " +
                           std::to_string(sent) + "B > local memory " +
                           std::to_string(config_.local_memory_bytes) + "B");
      }
      ++record.violations;
    }
  }
  for (MachineId dst = 0; dst < m; ++dst) {
    record.max_recv_bytes = std::max(record.max_recv_bytes, recv_bytes[dst]);
    if (recv_bytes[dst] > config_.local_memory_bytes) {
      if (config_.enforce_limits) {
        throw MpcViolation("round '" + record.label + "': machine " +
                           std::to_string(dst) + " received " +
                           std::to_string(recv_bytes[dst]) +
                           "B > local memory " +
                           std::to_string(config_.local_memory_bytes) + "B");
      }
      ++record.violations;
    }
  }
  if (profiling) t_audited = ProfileClock::now();

  // Deliver: replace inboxes with this round's messages (previous inboxes
  // are consumed — machines that need old messages must store them). A
  // single-fragment cell moves its Buffer, sharing the slab with whoever
  // else holds it (sender-side store, sibling receivers).
  for (MachineId dst = 0; dst < m; ++dst) {
    auto& inbox = machines_[dst].inbox;
    inbox.clear();
    for (MachineId src = 0; src < m; ++src) {
      auto& fragments = outboxes[src].fragments[dst];
      if (!fragments.empty()) {
        inbox.push_back(Message{src, coalesce(fragments)});
      }
    }
  }

  // Audit residency (store + inbox) at the round boundary.
  for (MachineId id = 0; id < m; ++id) {
    const std::size_t resident =
        machines_[id].store.resident_bytes() + machines_[id].inbox_bytes();
    record.max_resident_bytes = std::max(record.max_resident_bytes, resident);
    record.total_resident_bytes += resident;
    if (resident > config_.local_memory_bytes) {
      if (config_.enforce_limits) {
        throw MpcViolation("round '" + record.label + "': machine " +
                           std::to_string(id) + " resident " +
                           std::to_string(resident) + "B > local memory " +
                           std::to_string(config_.local_memory_bytes) + "B");
      }
      ++record.violations;
    }
  }

  stats_.record(std::move(record));
  if (hooks_ != nullptr) {
    if (profiling) t_delivered = ProfileClock::now();
    const auto seconds = [](ProfileClock::time_point a,
                            ProfileClock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    ClusterHooks::RoundProfile profile;
    profile.label = stats_.records().back().label;
    profile.compute_seconds = seconds(t_start, t_stepped);
    profile.audit_seconds = seconds(t_stepped, t_audited);
    profile.deliver_seconds = seconds(t_audited, t_delivered);
    hooks_->round_profile(round, profile);
    // The commit hook runs at the exact boundary resume_from re-enters:
    // a snapshot taken here restores to "run_round(round) just returned".
    hooks_->round_committed(*this, round);
  }
}

}  // namespace mpte::mpc
