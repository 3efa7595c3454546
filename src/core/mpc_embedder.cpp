#include "core/mpc_embedder.hpp"

#include <cstddef>

#include "core/mpc_stages.hpp"
#include "mpc/point_blocks.hpp"
#include "mpc/primitives.hpp"
#include "obs/trace.hpp"
#include "tree/embedding_builder.hpp"

namespace mpte {

using mpc::Cluster;
using mpc::KV;

// The edge set holds KV{child, parent} and keys::kLeaf KV{point, id}: the
// layouts of TreeEdge and TreeLeaf, so the readout gathers them as such.
static_assert(sizeof(TreeEdge) == sizeof(KV) &&
              offsetof(TreeEdge, child) == offsetof(KV, key) &&
              offsetof(TreeEdge, parent) == offsetof(KV, value));
static_assert(sizeof(TreeLeaf) == sizeof(KV) &&
              offsetof(TreeLeaf, point) == offsetof(KV, key) &&
              offsetof(TreeLeaf, id) == offsetof(KV, value));

Result<MpcEmbedding> mpc_embed(Cluster& cluster, const PointSet& points,
                               const MpcEmbedOptions& options) {
  const obs::Span pipeline_span("emb", "mpc_embed", "points", points.size());
  const Result<detail::MpcRun> run = detail::run_mpc_pipeline(
      cluster, points, options, detail::PathOutput::kTreeEdges, "mpc_embed");
  if (!run.ok()) return run.status();
  const std::size_t n = points.size();

  // Stage 5: the tree is the deduplicated union of paths.
  const mpc::Key<KV> dedup_key{detail::keys::kEdges.name + "/dedup"};
  {
    const obs::Span span("emb", "dedup-edges");
    mpc::dedup_kv(cluster, detail::keys::kEdges.name, dedup_key.name);
  }

  // Host-side assembly (output readout): the one tree assembly over the
  // gathered edge set and leaf records.
  const obs::Span assemble_span("emb", "assemble");
  Hst tree = assemble_tree(
      mpc::gather_vector<TreeEdge>(cluster, dedup_key.name),
      mpc::gather_vector<TreeLeaf>(cluster, detail::keys::kLeaf.name),
      hybrid_root_id(run->params.seed), n, run->plan.ladder.edge_weight);

  // Gather the quantized points for inspection/distortion measurement.
  PointSet embedded = mpc::gather_points(cluster, n, run->dim);
  detail::erase_run_keys(cluster, {dedup_key.name, detail::keys::kLeaf.name});

  MpcEmbedding embedding{
      {
          std::move(tree),
          std::move(embedded),
          run->cell,
          run->plan.delta,
          run->plan.num_buckets,
          run->plan.num_grids,
          run->dim,
          run->fjlt_applied,
          run->attempt,
          /*point_ids=*/{},
      },
      cluster.logical_rounds() - run->rounds_before,
  };
  return embedding;
}

}  // namespace mpte
