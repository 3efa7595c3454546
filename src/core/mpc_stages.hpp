// Reusable stages of the MPC embedding pipeline (Algorithm 2).
//
// mpc_embed() composes these; the Corollary 1 applications
// (apps/mpc_apps.*) reuse the same stages and then consume the
// *distributed* root-to-leaf paths directly — one extra shuffle instead of
// assembling the tree centrally. Keeping the stages in one place
// guarantees every consumer computes the identical hierarchy for a given
// seed.
//
// The cluster-resident state these stages leave behind is exposed as the
// typed keys in mpte::detail::keys below; the full data-layout contract
// (who writes what, when, in which format) is documented in
// docs/mpc-model.md ("The emb/* data layout").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point_set.hpp"
#include "mpc/channel.hpp"
#include "mpc/cluster.hpp"
#include "mpc/primitives.hpp"
#include "partition/hybrid_partition.hpp"
#include "tree/embedding_builder.hpp"

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

/// Typed handles to the cluster-resident state of the embedding pipeline.
/// See docs/mpc-model.md for the layout contract.
namespace keys {
inline const mpc::Key<std::uint64_t> kIdx{"emb/idx"};
inline const mpc::Key<double> kPts{"emb/pts"};
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
}  // namespace keys

/// Host-side input loading: scatters (index, coordinates) blocks of
/// `points` across machines under keys::kIdx / keys::kPts.
void scatter_points(mpc::Cluster& cluster, const PointSet& points);

/// Stage 2: distributed quantization to [1, delta]^dim — bounding box by
/// converge-cast, broadcast, local snap. Rewrites keys::kPts in place with
/// integer coordinates (identical arithmetic to quantize_to_grid).
void mpc_quantize(mpc::Cluster& cluster, std::size_t dim,
                  std::uint64_t delta, std::size_t fanout);

/// Stages 3+4 for one seed attempt: broadcast the grid description, then
/// every machine computes its points' root-to-leaf paths locally, leaving
/// keys::kEdges (KV child-id -> parent-id, per level) and keys::kLeaf
/// (KV point-index -> bottom cluster id). Returns the number of uncovered
/// (point, level, bucket) events under the kFail policy (0 = success);
/// under the singleton policy always returns 0.
std::uint64_t run_partition_attempt(mpc::Cluster& cluster, std::size_t dim,
                                    const PartitionParams& params,
                                    std::size_t fanout);

/// Stage 5's host-side readout: the raw cluster tree from the gathered,
/// deduplicated keys::kEdges records (KV child-id -> parent-id) and the
/// keys::kLeaf records (KV point-index -> bottom cluster id). Nodes are in
/// BFS order from `root_id`, each node's children in ascending id order;
/// an id reached under two parents appears under both, and a leaf attaches
/// to its id's first BFS occurrence. Points without a leaf record stay at
/// the root. Throws MpteError when a leaf names an id the BFS never
/// reaches or a point index >= num_points. edge_weight is left empty.
RawTree assemble_raw_tree(std::vector<mpc::KV> edges,
                          std::span<const mpc::KV> leaves,
                          std::uint64_t root_id, std::size_t num_points);

/// Node id of the hierarchy cluster a point occupies at `level`, packed
/// with the level in the top byte — the key format the distributed
/// applications reduce on. Levels are < 2^8 (<= ~70 for any representable
/// delta), ids keep 56 mixed bits.
std::uint64_t pack_level_node(std::size_t level, std::uint64_t cluster_id);

/// Inverse of pack_level_node's level field.
std::size_t packed_level(std::uint64_t key);

/// Like run_partition_attempt, but emits per-(point, level) records
/// keys::kNodes: KV{pack_level_node(level, id), point-index}, the input to
/// path-based reductions (EMD imbalance, subtree counts, representatives).
/// With emit_links it additionally stores keys::kLinks:
/// KV{packed child, packed parent} (needed by the distributed MST).
/// Also leaves keys::kFail like run_partition_attempt; same return.
std::uint64_t run_path_records_attempt(mpc::Cluster& cluster,
                                       std::size_t dim,
                                       const PartitionParams& params,
                                       std::size_t fanout,
                                       bool emit_links = false);

}  // namespace mpte::detail
