// Versioned, checksummed on-disk snapshots of Cluster execution state.
//
// A snapshot captures everything needed to re-enter a run at a round
// boundary: every machine's LocalStore and inbox (Buffer slabs shared with
// the live cluster at capture — serialization is the only copy), the full
// RoundRecord history (doubling as the round counter), and the driver note
// (host-side decisions like the chosen delta). The encoding reuses
// Serializer and is wrapped in the common checksummed file envelope, so
// truncated or bit-flipped snapshot files are rejected with a Status
// instead of resurrecting garbage state.
//
// Version 1 still has a byte-vector slot before the driver note that
// earlier builds filled with a fault-schedule cursor. It is written empty
// and skipped on read, so their checkpoint directories still resume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "mpc/cluster.hpp"

namespace mpte::ckpt {

struct Snapshot {
  static constexpr std::uint32_t kMagic = 0x4b43504d;  // "MPCK"
  static constexpr std::uint32_t kVersion = 1;

  /// Rounds committed when the snapshot was taken (== state.records.size();
  /// resume_from skips exactly this many run_round calls).
  std::uint64_t rounds = 0;
  mpc::ClusterState state;

  /// Captures the cluster's restorable state.
  static Snapshot capture(const mpc::Cluster& cluster);

  /// Serialized payload wrapped in the checksummed envelope.
  std::vector<std::uint8_t> to_bytes() const;

  /// Envelope-validates and decodes; malformed input yields a Status
  /// (kInvalidArgument), never UB or a partially constructed snapshot.
  static Result<Snapshot> from_bytes(std::vector<std::uint8_t> file_bytes,
                                     const std::string& context);

  static Result<Snapshot> read(const std::string& path);
};

}  // namespace mpte::ckpt
