#include "core/mpc_embedder.hpp"

#include "core/mpc_stages.hpp"
#include "mpc/point_blocks.hpp"
#include "mpc/primitives.hpp"
#include "obs/trace.hpp"
#include "tree/embedding_builder.hpp"

namespace mpte {

using mpc::Cluster;
using mpc::KV;

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

  // Host-side assembly (output readout): BFS from the root id over the
  // gathered edge set, then the shared pruning pass.
  const obs::Span assemble_span("emb", "assemble");
  const auto leaves = mpc::gather_vector<KV>(cluster, detail::keys::kLeaf.name);
  RawTree raw = detail::assemble_raw_tree(
      mpc::gather_vector<KV>(cluster, dedup_key.name), leaves,
      hybrid_root_id(run->params.seed), n);
  raw.edge_weight = run->plan.ladder.edge_weight;

  // Gather the quantized points for inspection/distortion measurement.
  PointSet embedded = mpc::gather_points(cluster, n, run->dim);
  detail::erase_run_keys(cluster, {dedup_key.name, detail::keys::kLeaf.name});

  MpcEmbedding embedding{
      {
          assemble_pruned(raw),
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
      cluster.stats().rounds() - run->rounds_before,
  };
  return embedding;
}

}  // namespace mpte
