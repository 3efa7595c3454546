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
/// find the same d_min bit for bit, so Δ and the embedding stay put.
/// embed() on auto_delta_embed_options() builds the same bytes: every
/// pipeline runs one tree assembly.
inline constexpr std::uint64_t kAutoDelta = 202;
inline constexpr std::uint64_t kAutoDeltaMpcHash = 6322586044953844604ull;

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

/// The sequential embed() counterpart of MPC options: the same shared
/// fields, the hybrid method.
inline EmbedOptions embed_options(const MpcEmbedOptions& mpc) {
  EmbedOptions options;
  static_cast<PipelineOptions&>(options) = mpc;
  return options;
}

/// The sequential embed() counterpart of auto_delta_options().
inline EmbedOptions auto_delta_embed_options() {
  return embed_options(auto_delta_options());
}

/// The FJLT + derived-Δ configuration: 120 clustered points in R^300 (the
/// FJLT takes them to 154 dims), Δ derived from the transformed points,
/// and U = 175 grids per set, so attempts 0 and 1 fail coverage and
/// attempt 2 succeeds. Run on golden_config().
inline PointSet fjlt_points() {
  return generate_gaussian_clusters(120, 300, 4, 100.0, 1.0, 5);
}

inline MpcEmbedOptions fjlt_options() {
  MpcEmbedOptions options;
  options.seed = 4;
  options.num_grids = 175;
  return options;
}

/// mpc_embed on the FJLT configuration, captured before embed, mpc_embed,
/// the MPC applications and dyn shared one front end.
inline constexpr std::uint64_t kFjltMpcHash = 15380268312859599126ull;
inline constexpr double kFjltScaleToInput = 0x1.354b05df4244bp-4;
inline constexpr std::uint64_t kFjltDelta = 2903;
inline constexpr int kFjltRetries = 2;

/// What the Corollary 1 applications report on one configuration, bit for
/// bit. The EMD sides are the first and the second half of the points.
struct AppPins {
  /// The densest-ball query diameter, in input units.
  double max_diameter;
  double emd;
  std::size_t ball_count;
  double ball_diameter;
  /// FNV-1a over the MST's (u, v) index pairs as u64, in result order.
  std::uint64_t mst_fingerprint;
  double mst_length;
  /// retries_used: the same for every application, which all embed the
  /// same points.
  int retries;
  /// rounds_used of the EMD, densest ball and MST.
  std::size_t emd_rounds;
  std::size_t ball_rounds;
  std::size_t mst_rounds;
};

/// The applications on golden_points()/golden_options() and on
/// fjlt_points()/fjlt_options(), captured with kFjltMpcHash.
inline constexpr AppPins kGoldenAppPins{
    80.0, 0x1.50aba79658643p+14, 8,
    0x1.dede77df861c7p+5, 13975696757314228887ull, 0x1.08a4d618690e5p+12,
    0, 20, 19, 24};
inline constexpr AppPins kFjltAppPins{
    2000.0, 0x1.5108f1eeac294p+20, 3,
    0x1.328198e1021d4p+10, 6767017456479305469ull, 0x1.c9d6370b023ecp+12,
    2, 35, 34, 39};

/// FNV-1a over the tree bytes, then the embedded point coordinates.
inline std::uint64_t fingerprint(const Hst& tree, const PointSet& embedded) {
  const auto tree_bytes = hst_to_bytes(tree);
  const std::uint64_t h = fnv1a64(tree_bytes, kFingerprintSeed);
  const auto& raw = embedded.raw();
  return fnv1a64(std::span(reinterpret_cast<const std::uint8_t*>(raw.data()),
                           raw.size() * sizeof(double)),
                 h);
}

inline std::uint64_t fingerprint(const Embedding& result) {
  return fingerprint(result.tree, result.embedded_points);
}

}  // namespace mpte::golden
