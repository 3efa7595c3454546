#include "apps/mpc_apps.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/mpc_stages.hpp"
#include "mpc/primitives.hpp"
#include "mpc/step.hpp"
#include "obs/trace.hpp"

namespace mpte {
namespace {

using mpc::StepParams;
using mpc::Channel;
using mpc::Cluster;
using mpc::Key;
using mpc::KV;
using mpc::MachineContext;
using mpc::MachineId;
using mpc::RegisterStep;
using mpc::Step;
using mpc::StepSpec;
using mpc::ValueKey;
using detail::keys::kLinks;
using detail::keys::kNodes;

// Typed handles to the per-application cluster state.
const Key<KV> kEmdIn{"emd/in"};
const Key<KV> kEmdImbalance{"emd/imbalance"};
const ValueKey<double> kEmdPartial{"emd/partial"};
const ValueKey<double> kEmdTotal{"emd/total"};
const Key<KV> kDbIn{"db/in"};
const Key<KV> kDbCounts{"db/counts"};
const Key<KV> kMstRep{"mst/rep"};
const Key<KV> kMstLinks{"mst/links"};
const Key<KV> kMstEdges{"mst/edges"};
const Key<KV> kMstEdgesDedup{"mst/edges/dedup"};

/// Wire record of the densest-ball converge-cast: a machine's best
/// qualifying cluster size and its diameter bound.
struct BallBest {
  std::uint64_t count;
  double bound;
};

const Channel<BallBest> kBestCh{"db/best"};
const ValueKey<BallBest> kBestKey{"db/best"};

// --- registered steps -------------------------------------------------------
// Level weights and diameter bounds are recomputed worker-side from the
// ladder's defining triple (dim, num_buckets, delta) — the same
// counter-based-randomness discipline the partition stages use.

Step make_emd_label(StepParams params) {
  Deserializer d(params);
  const auto a_count = d.read<std::uint64_t>();
  return [a_count](MachineContext& ctx) {
    auto records = kNodes.get(ctx.store());
    kNodes.erase(ctx.store());
    for (KV& kv : records) {
      const std::int64_t side = kv.value < a_count ? 1 : -1;
      kv.value = static_cast<std::uint64_t>(side);
    }
    kEmdIn.set(ctx.store(), records);
  };
}

Step make_emd_weight(StepParams params) {
  Deserializer d(params);
  const auto dim = static_cast<std::size_t>(d.read<std::uint64_t>());
  const auto num_buckets = d.read<std::uint32_t>();
  const auto delta = d.read<std::uint64_t>();
  return [dim, num_buckets, delta](MachineContext& ctx) {
    const ScaleLadder ladder = hybrid_scale_ladder(dim, num_buckets, delta);
    double partial = 0.0;
    for (const KV& kv : kEmdImbalance.get(ctx.store())) {
      const std::size_t level = detail::packed_level(kv.key);
      const auto imbalance = static_cast<std::int64_t>(kv.value);
      partial += ladder.edge_weight[level] *
                 static_cast<double>(std::llabs(imbalance));
    }
    kEmdImbalance.erase(ctx.store());
    kEmdPartial.set(ctx.store(), partial);
  };
}

Step make_densest_count_prep(StepParams /*params*/) {
  return [](MachineContext& ctx) {
    auto records = kNodes.get(ctx.store());
    kNodes.erase(ctx.store());
    for (KV& kv : records) kv.value = 1;
    kDbIn.set(ctx.store(), records);
  };
}

Step make_densest_local_best(StepParams params) {
  Deserializer d(params);
  const auto dim = static_cast<std::size_t>(d.read<std::uint64_t>());
  const auto num_buckets = d.read<std::uint32_t>();
  const auto delta = d.read<std::uint64_t>();
  const auto max_diameter_q = d.read<double>();
  return [dim, num_buckets, delta, max_diameter_q](MachineContext& ctx) {
    const ScaleLadder ladder = hybrid_scale_ladder(dim, num_buckets, delta);
    const double sqrt_r = std::sqrt(static_cast<double>(num_buckets));
    BallBest best{0, 0.0};
    for (const KV& kv : kDbCounts.get(ctx.store())) {
      const std::size_t level = detail::packed_level(kv.key);
      const double bound = 2.0 * sqrt_r * ladder.scales[level];
      if (bound > max_diameter_q) continue;
      if (kv.value > best.count) best = BallBest{kv.value, bound};
    }
    kDbCounts.erase(ctx.store());
    kBestCh.send_one(ctx, 0, best);
  };
}

Step make_densest_global_best(StepParams /*params*/) {
  return [](MachineContext& ctx) {
    if (ctx.id() != 0) return;
    BallBest best{1, 0.0};  // a singleton always qualifies
    for (const BallBest& candidate : kBestCh.receive_raw(ctx)) {
      if (candidate.count > best.count) best = candidate;
    }
    kBestKey.set(ctx.store(), best);
  };
}

Step make_mst_route_child_reps(StepParams /*params*/) {
  return [](MachineContext& ctx) {
    const std::size_t m = ctx.num_machines();
    const Channel<KV> reps_ch{kMstLinks.name};
    std::unordered_map<std::uint64_t, std::uint64_t> rep;
    for (const KV& kv : kMstRep.get(ctx.store())) {
      rep.emplace(kv.key, kv.value);
    }
    std::vector<std::vector<KV>> out(m);
    for (const KV& link : kMstLinks.get(ctx.store())) {
      const std::uint64_t child_rep = rep.at(link.key);
      out[mix64(link.value) % m].push_back(KV{link.value, child_rep});
    }
    kMstLinks.erase(ctx.store());
    for (MachineId dst = 0; dst < m; ++dst) {
      if (!out[dst].empty()) reps_ch.send(ctx, dst, out[dst]);
    }
  };
}

Step make_mst_emit_edges(StepParams /*params*/) {
  return [](MachineContext& ctx) {
    const Channel<KV> reps_ch{kMstLinks.name};
    std::unordered_map<std::uint64_t, std::uint64_t> rep;
    for (const KV& kv : kMstRep.get(ctx.store())) {
      rep.emplace(kv.key, kv.value);
    }
    kMstRep.erase(ctx.store());
    std::vector<KV> edges;
    for (const KV& record : reps_ch.receive(ctx)) {
      // record = {parent node, child rep}.
      const auto it = rep.find(record.key);
      // The root (level 0) never appears under kNodes — its
      // representative is the global min index, 0.
      const std::uint64_t parent_rep = it != rep.end() ? it->second : 0;
      if (parent_rep != record.value) {
        edges.push_back(KV{std::min(parent_rep, record.value),
                           std::max(parent_rep, record.value)});
      }
    }
    std::sort(edges.begin(), edges.end(), mpc::kv_less);
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    kMstEdges.set(ctx.store(), edges);
  };
}

const RegisterStep kRegEmdLabel{"emd/label", make_emd_label};
const RegisterStep kRegEmdWeight{"emd/weight", make_emd_weight};
const RegisterStep kRegDensestCountPrep{"densest/count-prep",
                                        make_densest_count_prep};
const RegisterStep kRegDensestLocalBest{"densest/local-best",
                                        make_densest_local_best};
const RegisterStep kRegDensestGlobalBest{"densest/global-best",
                                         make_densest_global_best};
const RegisterStep kRegMstRouteChildReps{"mst/route-child-reps",
                                         make_mst_route_child_reps};
const RegisterStep kRegMstEmitEdges{"mst/emit-edges", make_mst_emit_edges};

}  // namespace

Result<MpcEmdResult> mpc_tree_emd(Cluster& cluster, const PointSet& a,
                                  const PointSet& b,
                                  const MpcEmbedOptions& options) {
  const obs::Span span("apps", "mpc_tree_emd", "points",
                       a.size() + b.size());
  if (a.size() != b.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_tree_emd: sides must have equal size");
  }
  if (a.dim() != b.dim()) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_tree_emd: dimension mismatch");
  }
  PointSet all = a;
  for (std::size_t i = 0; i < b.size(); ++i) all.push_back(b[i]);

  const auto run = detail::run_mpc_pipeline(
      cluster, all, options, detail::PathOutput::kRecords, "mpc_tree_emd");
  if (!run.ok()) return run.status();

  // Side-label the path records: +1 for points of a, -1 for points of b
  // (two's-complement u64 so the KV sum reduction computes signed sums).
  Serializer label;
  label.write(static_cast<std::uint64_t>(a.size()));
  cluster.run_round(StepSpec("emd/label", std::move(label)));

  // Reduce per-cluster imbalances, weight by level, converge-cast.
  mpc::reduce_kv_sum(cluster, kEmdIn.name, kEmdImbalance.name);
  Serializer weight;
  weight.write(static_cast<std::uint64_t>(run->dim));
  weight.write(run->plan.num_buckets);
  weight.write(run->plan.delta);
  cluster.run_round(StepSpec("emd/weight", std::move(weight)));
  mpc::sum_double(cluster, kEmdPartial.name, kEmdTotal.name, 0);

  MpcEmdResult result;
  result.emd = kEmdTotal.get(cluster.store(0)) * run->cell;
  result.retries_used = run->attempt;
  result.rounds_used = cluster.logical_rounds() - run->rounds_before;
  detail::erase_run_keys(cluster, {kEmdPartial.name, kEmdTotal.name});
  return result;
}

Result<MpcDensestBallResult> mpc_densest_ball(
    Cluster& cluster, const PointSet& points, double max_diameter,
    const MpcEmbedOptions& options) {
  const obs::Span span("apps", "mpc_densest_ball", "points", points.size());
  if (max_diameter < 0.0) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_densest_ball: negative diameter");
  }
  const auto run =
      detail::run_mpc_pipeline(cluster, points, options,
                               detail::PathOutput::kRecords,
                               "mpc_densest_ball");
  if (!run.ok()) return run.status();
  const double max_diameter_q = max_diameter / run->cell;

  // Per-cluster point counts.
  cluster.run_round(StepSpec("densest/count-prep"));
  mpc::reduce_kv_sum(cluster, kDbIn.name, kDbCounts.name);

  // Local best among qualifying levels, converge-cast to rank 0.
  Serializer local_best;
  local_best.write(static_cast<std::uint64_t>(run->dim));
  local_best.write(run->plan.num_buckets);
  local_best.write(run->plan.delta);
  local_best.write(max_diameter_q);
  cluster.run_round(StepSpec("densest/local-best", std::move(local_best)));
  cluster.run_round(StepSpec("densest/global-best"));

  MpcDensestBallResult result;
  {
    const BallBest best = kBestKey.get(cluster.store(0));
    result.count = best.count;
    result.diameter = best.bound * run->cell;
  }
  // The root cluster (level 0, all n points) is not in the path records;
  // it qualifies whenever its diameter bound fits.
  const double sqrt_r = std::sqrt(static_cast<double>(run->plan.num_buckets));
  const double root_bound = 2.0 * sqrt_r * run->plan.ladder.scales[0];
  if (root_bound <= max_diameter_q && points.size() > result.count) {
    result.count = points.size();
    result.diameter = root_bound * run->cell;
  }
  result.retries_used = run->attempt;
  result.rounds_used = cluster.logical_rounds() - run->rounds_before;
  detail::erase_run_keys(cluster, {kBestKey.name});
  return result;
}

Result<MpcMstResult> mpc_tree_mst(Cluster& cluster, const PointSet& points,
                                  const MpcEmbedOptions& options) {
  const obs::Span span("apps", "mpc_tree_mst", "points", points.size());
  const auto run = detail::run_mpc_pipeline(
      cluster, points, options, detail::PathOutput::kRecordsAndLinks,
      "mpc_tree_mst");
  if (!run.ok()) return run.status();

  // Representative (min point index) per cluster; child->parent links
  // land on the same machines (same key hashing).
  mpc::reduce_kv_min(cluster, kNodes.name, kMstRep.name);
  mpc::dedup_kv(cluster, kLinks.name, kMstLinks.name);

  // Route each link's child-representative to the parent's machine.
  cluster.run_round(StepSpec("mst/route-child-reps"));

  // Pair child reps with the parent's rep; emit connecting edges.
  cluster.run_round(StepSpec("mst/emit-edges"));

  mpc::dedup_kv(cluster, kMstEdges.name, kMstEdgesDedup.name);

  // Output readout: the distributed edge list, lengths evaluated against
  // the original points.
  MpcMstResult result;
  const auto edges = mpc::gather_vector<KV>(cluster, kMstEdgesDedup.name);
  result.edges.reserve(edges.size());
  for (const KV& edge : edges) {
    const double length = l2_distance(points[edge.key], points[edge.value]);
    result.edges.push_back(MstEdge{static_cast<std::size_t>(edge.key),
                                   static_cast<std::size_t>(edge.value),
                                   length});
    result.total_length += length;
  }
  result.retries_used = run->attempt;
  result.rounds_used = cluster.logical_rounds() - run->rounds_before;
  detail::erase_run_keys(cluster, {kMstEdgesDedup.name});
  return result;
}

}  // namespace mpte
