// The repo-wide golden embedding: one pinned mpc_embed configuration and
// the fingerprint of its output, shared by every test that asserts a
// refactor, backend, thread count, or recovery path left the computed
// embedding byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/checksum.hpp"
#include "core/embedder.hpp"
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

/// Auto-Δ pins: the golden points and options with delta = 0, so Δ is
/// derived from the input by recommended_delta. Captured with the
/// all-pairs distance scan; the closest-pair search that replaced it must
/// find the same d_min bit for bit, so Δ and both embeddings stay put.
inline constexpr std::uint64_t kAutoDelta = 202;
inline constexpr std::uint64_t kAutoDeltaMpcHash = 6322586044953844604ull;
inline constexpr std::uint64_t kAutoDeltaEmbedHash = 14854787649588370003ull;

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

/// golden_options() with Δ left to the input (delta = 0).
inline MpcEmbedOptions auto_delta_options() {
  MpcEmbedOptions options = golden_options();
  options.delta = 0;
  return options;
}

/// The sequential embed() counterpart of auto_delta_options().
inline EmbedOptions auto_delta_embed_options() {
  const MpcEmbedOptions mpc = auto_delta_options();
  EmbedOptions options;
  options.seed = mpc.seed;
  options.num_buckets = mpc.num_buckets;
  options.delta = mpc.delta;
  options.use_fjlt = mpc.use_fjlt;
  return options;
}

/// FNV-1a over the tree bytes, then the embedded point coordinates.
inline std::uint64_t fingerprint(const Hst& tree, const PointSet& embedded) {
  const auto tree_bytes = hst_to_bytes(tree);
  const std::uint64_t h = fnv1a64(tree_bytes, kFingerprintSeed);
  const auto& raw = embedded.raw();
  return fnv1a64(std::span(reinterpret_cast<const std::uint8_t*>(raw.data()),
                           raw.size() * sizeof(double)),
                 h);
}

inline std::uint64_t fingerprint(const MpcEmbedding& result) {
  return fingerprint(result.tree, result.embedded_points);
}

inline std::uint64_t fingerprint(const Embedding& result) {
  return fingerprint(result.tree, result.embedded_points);
}

}  // namespace mpte::golden
