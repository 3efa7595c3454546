// Reusable stages of the MPC embedding pipeline (Algorithm 2), and
// run_mpc_pipeline, the one driver behind mpc_embed() and the Corollary 1
// applications (apps/mpc_apps.*). The two differ only in the attempt step:
// the applications consume the *distributed* root-to-leaf paths directly —
// one extra shuffle instead of assembling the tree centrally. Keeping the
// stages in one place guarantees every consumer computes the identical
// hierarchy for a given seed.
//
// The cluster-resident state these stages leave behind is exposed as the
// typed keys in mpte::detail::keys below; the full data-layout contract
// (who writes what, when, in which format) is documented in
// docs/mpc-model.md ("The emb/* data layout").
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "core/mpc_embedder.hpp"
#include "geometry/point_set.hpp"
#include "mpc/channel.hpp"
#include "mpc/cluster.hpp"
#include "mpc/point_blocks.hpp"
#include "mpc/primitives.hpp"
#include "partition/plan.hpp"

namespace mpte::detail {

/// The "grids" rank 0 builds and broadcasts (stage 3): the counter-based
/// description of every grid of every level and bucket — seed, scale
/// ladder parameters, and grid count.
struct PartitionParams {
  std::uint64_t seed = 0;
  std::uint64_t delta = 0;
  std::uint64_t num_grids = 0;
  std::uint32_t num_buckets = 0;
  std::uint32_t bucket_dim = 0;
  std::uint32_t effective_dim = 0;  // bucket_dim * num_buckets
  std::uint32_t uncovered_singleton = 0;
};

/// The stage-3 description of `plan` under partition seed `seed`.
PartitionParams partition_params(const PartitionPlan& plan,
                                 std::uint64_t seed);

/// Typed handles to the cluster-resident state of the embedding pipeline.
/// See docs/mpc-model.md for the layout contract.
namespace keys {
using mpc::keys::kIdx;
using mpc::keys::kPts;
inline const mpc::Key<mpc::KV> kEdges{"emb/edges"};
inline const mpc::Key<mpc::KV> kLeaf{"emb/leaf"};
inline const mpc::Key<mpc::KV> kNodes{"emb/nodes"};
inline const mpc::Key<mpc::KV> kLinks{"emb/links"};
inline const mpc::ValueKey<std::uint64_t> kFail{"emb/fail"};
inline const mpc::ValueKey<std::uint64_t> kFailTotal{"emb/fail/total"};
inline const mpc::ValueKey<PartitionParams> kGrids{"emb/grids"};
/// Bounding-box blob of mpc_quantize: double cell size + length-prefixed
/// lo vector (mixed types — kept as a raw Serializer blob, not a Key<T>).
inline constexpr const char* kBox = "emb/box";
/// The lattice cell quantize/combine leaves on rank 0 (scale_to_input).
inline const mpc::ValueKey<double> kCell{"emb/cell"};
}  // namespace keys

/// Stage 2: distributed quantization to [1, delta]^dim — bounding box by
/// converge-cast, the QuantFrame broadcast, local snap. Rewrites
/// keys::kPts in place with integer coordinates (the QuantFrame snap that
/// quantize_to_grid applies) and leaves keys::kCell on rank 0.
void mpc_quantize(mpc::Cluster& cluster, std::size_t dim,
                  std::uint64_t delta, std::size_t fanout);

/// Node id of the hierarchy cluster a point occupies at `level`, packed
/// with the level in the top byte — the key format the distributed
/// applications reduce on. Levels are < 2^8 (<= ~70 for any representable
/// delta), ids keep 56 mixed bits.
std::uint64_t pack_level_node(std::size_t level, std::uint64_t cluster_id);

/// Inverse of pack_level_node's level field.
std::size_t packed_level(std::uint64_t key);

/// What an attempt's stage-4 step leaves resident.
enum class PathOutput {
  /// paths/compute: keys::kEdges (KV child-id -> parent-id, per level) and
  /// keys::kLeaf (KV point-index -> bottom cluster id) — mpc_embed's tree.
  kTreeEdges,
  /// paths/records: keys::kNodes, KV{pack_level_node(level, id),
  /// point-index} per (point, level) — the input to the path-based
  /// reductions (EMD imbalance, subtree counts, representatives).
  kRecords,
  /// paths/records plus keys::kLinks, KV{packed child, packed parent} (the
  /// distributed MST).
  kRecordsAndLinks,
};

/// Stages 3+4 for one seed attempt: broadcast the grid description, then
/// every machine computes its points' root-to-leaf paths locally and
/// leaves them as `output` says, plus keys::kFail. Returns the number of
/// uncovered (point, level, bucket) events under the kFail policy
/// (0 = success); under the singleton policy always returns 0.
std::uint64_t run_attempt(mpc::Cluster& cluster, std::size_t dim,
                          const PartitionParams& params, std::size_t fanout,
                          PathOutput output);

/// What run_mpc_pipeline hands its caller, besides the resident paths.
struct MpcRun {
  std::size_t dim = 0;  // after the FJLT
  bool fjlt_applied = false;
  double cell = 1.0;  // keys::kCell: the scale back to input units
  PartitionPlan plan;
  int attempt = 0;  // the successful attempt and its stage-3 description
  PartitionParams params;
  /// Cluster::logical_rounds() at entry: the baseline of rounds_used.
  std::size_t rounds_before = 0;
};

/// The MPC front end: the FJLT (its output stays resident) or the input
/// scatter, Delta (the host reads the transformed points back only to
/// derive it), mpc_quantize, the partition plan, then run_attempt with
/// Monte Carlo retries. `who` prefixes error messages. The driver owns the
/// cluster's driver note: it records Delta and the attempt in progress, so
/// a run resumed from a snapshot replays the rounds it fast-forwards over
/// with the original run's decisions.
Result<MpcRun> run_mpc_pipeline(mpc::Cluster& cluster, const PointSet& points,
                                const MpcEmbedOptions& options,
                                PathOutput output, std::string_view who);

/// Erases the keys run_mpc_pipeline leaves resident, and `extra`, from
/// every machine.
void erase_run_keys(mpc::Cluster& cluster,
                    std::initializer_list<std::string> extra);

}  // namespace mpte::detail
