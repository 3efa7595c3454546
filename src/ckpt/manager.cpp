#include "ckpt/manager.hpp"

#include <algorithm>
#include <filesystem>

#include "common/checksum.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace mpte::ckpt {

namespace fs = std::filesystem;

namespace {

constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".mpck";
/// Snapshots kept on disk: the newest, and one to fall back to when the
/// newest is unreadable.
constexpr std::size_t kKeep = 2;

std::string snapshot_filename(std::uint64_t rounds) {
  // Zero-padded so lexicographic filename order equals round order.
  std::string digits = std::to_string(rounds);
  if (digits.size() < 8) digits.insert(0, 8 - digits.size(), '0');
  return kPrefix + digits + kSuffix;
}

}  // namespace

Coordinator::Coordinator(mpc::CheckpointPolicy policy, FaultPlan plan)
    : policy_(std::move(policy)), plan_(std::move(plan)) {}

std::optional<mpc::MachineId> Coordinator::crash_rank(std::size_t round) {
  return plan_.take_crash(round);
}

void Coordinator::round_committed(mpc::Cluster& cluster, std::size_t round) {
  // Due on committed-round counts that are multiples of k, so a restored
  // run snapshots at the same rounds as an uninterrupted one.
  if (!policy_.enabled() ||
      (round + 1) % std::max<std::size_t>(policy_.every_k, 1) != 0) {
    return;
  }
  last_write_status_ = write_snapshot(cluster);
}

Status Coordinator::write_snapshot(mpc::Cluster& cluster) {
  const obs::Span span("ckpt", "write-snapshot", "round",
                       cluster.stats().rounds());
  Timer timer;
  std::error_code ec;
  fs::create_directories(policy_.directory, ec);
  if (ec) {
    return Status(StatusCode::kUnavailable,
                  "cannot create checkpoint directory " + policy_.directory);
  }
  const Snapshot snap = Snapshot::capture(cluster);
  const std::vector<std::uint8_t> bytes = snap.to_bytes();
  const fs::path path = fs::path(policy_.directory) /
                        snapshot_filename(snap.rounds);
  const Status status = write_file_atomic(path.string(), bytes);
  if (!status.ok()) return status;

  auto& resilience = cluster.stats().resilience();
  resilience.checkpoints_written += 1;
  resilience.checkpoint_bytes += bytes.size();
  resilience.checkpoint_seconds += timer.seconds();

  // Prune all but the newest kKeep snapshots.
  const auto paths = snapshot_paths(policy_.directory);
  for (std::size_t i = 0; i + kKeep < paths.size(); ++i) {
    fs::remove(paths[i], ec);
  }
  return Status::Ok();
}

std::vector<std::string> Coordinator::snapshot_paths(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.starts_with(kPrefix) && name.ends_with(kSuffix)) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Result<Snapshot> Coordinator::load_latest() const {
  if (!policy_.enabled()) {
    return Status(StatusCode::kUnavailable, "checkpointing is off");
  }
  const auto paths = snapshot_paths(policy_.directory);
  Status last(StatusCode::kUnavailable,
              "no snapshots in " + policy_.directory);
  for (auto it = paths.rbegin(); it != paths.rend(); ++it) {
    auto snap = Snapshot::read(*it);
    if (snap.ok()) return snap;
    last = snap.status();  // corrupt/truncated: fall back to an older file
  }
  return last;
}

void Coordinator::restore_latest(mpc::Cluster& cluster) {
  const obs::Span span("ckpt", "restore");
  Timer timer;
  auto snap = load_latest();
  if (snap.ok()) {
    cluster.resume_from(std::move(snap->state));
  } else {
    // Nothing usable (or checkpointing off): re-run from round zero.
    cluster.reset_to_start();
  }
  // Crashes already taken from plan_ stay taken (see header).
  auto& resilience = cluster.stats().resilience();
  resilience.recoveries += 1;
  resilience.recovery_seconds += timer.seconds();
}

}  // namespace mpte::ckpt
