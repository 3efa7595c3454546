// The repo-wide golden embedding: one pinned mpc_embed configuration and
// the fingerprint of its output, shared by every test that asserts a
// refactor, backend, thread count, or recovery path left the computed
// embedding byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/checksum.hpp"
#include "core/mpc_embedder.hpp"
#include "geometry/generators.hpp"
#include "mpc/cluster.hpp"
#include "tree/hst_io.hpp"

namespace mpte::golden {

/// Fingerprint of the golden embedding, captured from the seed
/// implementation. Any change means the computed embedding changed.
inline constexpr std::uint64_t kGoldenHash = 8852295253212578257ull;

/// Starting state of the fingerprint chain. Deliberately *not*
/// kFnv1aOffsetBasis (it is that constant with its last digit dropped):
/// the golden value was captured with this seed, and any other moves it.
inline constexpr std::uint64_t kFingerprintSeed = 1469598103934665603ull;

inline PointSet golden_points() {
  return generate_uniform_cube(150, 8, 30.0, 7);
}

inline MpcEmbedOptions golden_options() {
  MpcEmbedOptions options;
  options.seed = 99;
  options.num_buckets = 2;
  options.delta = 1024;
  options.use_fjlt = false;
  return options;
}

/// The golden cluster geometry (6 machines, 4 MiB each, limits enforced)
/// on the given backend and host thread count.
inline mpc::ClusterConfig golden_config(
    std::size_t threads, mpc::Backend backend = mpc::Backend::kInProcess) {
  mpc::ClusterConfig config;
  config.num_machines = 6;
  config.local_memory_bytes = 1 << 22;
  config.enforce_limits = true;
  config.num_threads = threads;
  config.backend = backend;
  return config;
}

inline Result<MpcEmbedding> golden_embed(mpc::Cluster& cluster) {
  return mpc_embed(cluster, golden_points(), golden_options());
}

/// FNV-1a over the tree bytes, then the embedded point coordinates.
inline std::uint64_t fingerprint(const MpcEmbedding& result) {
  const auto tree_bytes = hst_to_bytes(result.tree);
  const std::uint64_t h = fnv1a64(tree_bytes, kFingerprintSeed);
  const auto& raw = result.embedded_points.raw();
  return fnv1a64(std::span(reinterpret_cast<const std::uint8_t*>(raw.data()),
                           raw.size() * sizeof(double)),
                 h);
}

}  // namespace mpte::golden
