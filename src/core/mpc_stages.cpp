#include "core/mpc_stages.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "core/front_end.hpp"
#include "geometry/bounding_box.hpp"
#include "geometry/quantize.hpp"
#include "mpc/step.hpp"
#include "obs/trace.hpp"
#include "transform/mpc_fjlt.hpp"

namespace mpte::detail {

using mpc::StepParams;
using mpc::Cluster;
using mpc::KV;
using mpc::MachineContext;
using mpc::MachineId;
using mpc::RegisterStep;
using mpc::Step;
using mpc::StepSpec;

PartitionParams partition_params(const PartitionPlan& plan,
                                 std::uint64_t seed) {
  PartitionParams params;
  params.seed = seed;
  params.delta = plan.delta;
  params.num_grids = plan.num_grids;
  params.num_buckets = plan.num_buckets;
  params.bucket_dim = static_cast<std::uint32_t>(plan.bucket_dim);
  params.effective_dim = params.bucket_dim * params.num_buckets;
  params.uncovered_singleton =
      plan.uncovered == UncoveredPolicy::kSingleton ? 1 : 0;
  return params;
}

std::uint64_t pack_level_node(std::size_t level, std::uint64_t cluster_id) {
  return (static_cast<std::uint64_t>(level) << 56) | (cluster_id >> 8);
}

std::size_t packed_level(std::uint64_t key) {
  return static_cast<std::size_t>(key >> 56);
}

namespace {

Step make_quantize_extremes(StepParams params) {
  Deserializer d(params);
  const auto dim = static_cast<std::size_t>(d.read<std::uint64_t>());
  return [dim](MachineContext& ctx) {
    const auto data = keys::kPts.get(ctx.store());
    std::vector<double> lo(dim, std::numeric_limits<double>::infinity());
    std::vector<double> hi(dim, -std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i * dim < data.size(); ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        lo[j] = std::min(lo[j], data[i * dim + j]);
        hi[j] = std::max(hi[j], data[i * dim + j]);
      }
    }
    // One message carrying both extreme vectors (mixed content, so a
    // raw Serializer rather than a Channel batch).
    Serializer s(2 * wire_size<double>(dim));
    s.write_vector(lo);
    s.write_vector(hi);
    ctx.send(0, std::move(s), keys::kBox);
  };
}

Step make_quantize_combine(StepParams params) {
  Deserializer pd(params);
  const auto dim = static_cast<std::size_t>(pd.read<std::uint64_t>());
  const auto delta = pd.read<std::uint64_t>();
  return [dim, delta](MachineContext& ctx) {
    if (ctx.id() != 0) return;
    std::vector<double> lo(dim, std::numeric_limits<double>::infinity());
    std::vector<double> hi(dim, -std::numeric_limits<double>::infinity());
    for (const auto& msg : ctx.inbox()) {
      Deserializer d(msg.payload);
      const auto part_lo = d.read_vector<double>();
      const auto part_hi = d.read_vector<double>();
      for (std::size_t j = 0; j < dim; ++j) {
        lo[j] = std::min(lo[j], part_lo[j]);
        hi[j] = std::max(hi[j], part_hi[j]);
      }
    }
    const QuantFrame frame =
        QuantFrame::of(BoundingBox(std::move(lo), std::move(hi)), delta);
    Serializer s(sizeof(double) + wire_size<double>(dim));
    s.write(frame.cell);
    s.write_vector(frame.lo);
    ctx.store().set_blob(keys::kBox, s.take());
    keys::kCell.set(ctx.store(), frame.cell);
  };
}

Step make_quantize_snap(StepParams params) {
  Deserializer pd(params);
  const auto dim = static_cast<std::size_t>(pd.read<std::uint64_t>());
  const auto delta = pd.read<std::uint64_t>();
  return [dim, delta](MachineContext& ctx) {
    Deserializer d(ctx.store().blob(keys::kBox));
    QuantFrame frame;
    frame.cell = d.read<double>();
    frame.lo = d.read_vector<double>();
    frame.delta = delta;
    ctx.store().erase(keys::kBox);
    auto data = keys::kPts.get(ctx.store());
    for (std::size_t e = 0; e < data.size(); ++e) {
      data[e] = frame.snap(data[e], e % dim);
    }
    keys::kPts.set(ctx.store(), data);
  };
}

Step make_grids_build(StepParams params) {
  Deserializer d(params);
  const auto p = d.read<PartitionParams>();
  return [p](MachineContext& ctx) {
    if (ctx.id() != 0) return;
    keys::kGrids.set(ctx.store(), p);
  };
}

/// Common body of the two stage-4 variants: runs the shared hybrid id
/// chain (hybrid_path_ids) over this machine's points, one grid set at a
/// time, and calls `emit(level, parent, child)` once per level with every
/// local point's ids; emitters write straight into their point-major
/// output slots (local * levels + level - 1). Returns the number of
/// uncovered events under the kFail policy, 0 under kSingleton.
std::uint64_t compute_paths(MachineContext& ctx, std::size_t dim,
                            const PartitionParams& p,
                            const ScaleLadder& ladder,
                            const std::vector<std::uint64_t>& idx,
                            const PathLevelSink& emit) {
  if (idx.empty()) return 0;
  const auto data = keys::kPts.get(ctx.store());
  HybridChain chain;
  chain.seed = p.seed;
  chain.num_buckets = p.num_buckets;
  chain.bucket_dim = p.bucket_dim;
  chain.num_grids = p.num_grids;
  chain.scales = ladder.scales;
  chain.uncovered = p.uncovered_singleton != 0 ? UncoveredPolicy::kSingleton
                                               : UncoveredPolicy::kFail;
  // The singleton fallback is salted with the global point index.
  const PathIdsReport report =
      hybrid_path_ids(chain, data, dim, {}, idx, emit);
  return p.uncovered_singleton != 0 ? 0 : report.uncovered;
}

Step make_paths_compute(StepParams params) {
  Deserializer pd(params);
  const auto dim = static_cast<std::size_t>(pd.read<std::uint64_t>());
  return [dim](MachineContext& ctx) {
    const auto p = keys::kGrids.get(ctx.store());
    keys::kGrids.erase(ctx.store());
    const auto idx = keys::kIdx.get(ctx.store());
    const ScaleLadder ladder =
        hybrid_scale_ladder(dim, p.num_buckets, p.delta);
    const std::size_t levels = ladder.levels;
    // Per point, its edges level by level, then its bottom id as the leaf.
    std::vector<KV> edges(idx.size() * levels);
    std::vector<KV> leaves(idx.size());
    const std::uint64_t failures = compute_paths(
        ctx, dim, p, ladder, idx,
        [&](std::size_t level, std::span<const std::uint64_t> parent,
            std::span<const std::uint64_t> child) {
          for (std::size_t i = 0; i < idx.size(); ++i) {
            edges[i * levels + level - 1] = KV{child[i], parent[i]};
            leaves[i] = KV{idx[i], child[i]};
          }
        });
    keys::kEdges.set(ctx.store(), edges);
    keys::kLeaf.set(ctx.store(), leaves);
    keys::kFail.set(ctx.store(), failures);
  };
}

Step make_paths_records(StepParams params) {
  Deserializer pd(params);
  const auto dim = static_cast<std::size_t>(pd.read<std::uint64_t>());
  const bool emit_links = pd.read<std::uint8_t>() != 0;
  return [dim, emit_links](MachineContext& ctx) {
    const auto p = keys::kGrids.get(ctx.store());
    keys::kGrids.erase(ctx.store());
    const auto idx = keys::kIdx.get(ctx.store());
    const ScaleLadder ladder =
        hybrid_scale_ladder(dim, p.num_buckets, p.delta);
    const std::size_t levels = ladder.levels;
    std::vector<KV> records(idx.size() * levels);
    std::vector<KV> links(emit_links ? idx.size() * levels : 0);
    const std::uint64_t failures = compute_paths(
        ctx, dim, p, ladder, idx,
        [&](std::size_t level, std::span<const std::uint64_t> parent,
            std::span<const std::uint64_t> child) {
          for (std::size_t i = 0; i < idx.size(); ++i) {
            const std::size_t slot = i * levels + level - 1;
            records[slot] = KV{pack_level_node(level, child[i]), idx[i]};
            if (emit_links) {
              links[slot] = KV{pack_level_node(level, child[i]),
                               pack_level_node(level - 1, parent[i])};
            }
          }
        });
    keys::kNodes.set(ctx.store(), records);
    if (emit_links) keys::kLinks.set(ctx.store(), links);
    keys::kFail.set(ctx.store(), failures);
  };
}

const RegisterStep kRegQuantizeExtremes{"quantize/extremes",
                                        make_quantize_extremes};
const RegisterStep kRegQuantizeCombine{"quantize/combine",
                                       make_quantize_combine};
const RegisterStep kRegQuantizeSnap{"quantize/snap", make_quantize_snap};
const RegisterStep kRegGridsBuild{"grids/build", make_grids_build};
const RegisterStep kRegPathsCompute{"paths/compute", make_paths_compute};
const RegisterStep kRegPathsRecords{"paths/records", make_paths_records};

}  // namespace

void mpc_quantize(Cluster& cluster, std::size_t dim, std::uint64_t delta,
                  std::size_t fanout) {
  const obs::Span span("emb", "quantize", "delta", delta);
  Serializer extremes;
  extremes.write(static_cast<std::uint64_t>(dim));
  cluster.run_round(StepSpec("quantize/extremes", std::move(extremes)));

  Serializer combine;
  combine.write(static_cast<std::uint64_t>(dim));
  combine.write(delta);
  cluster.run_round(StepSpec("quantize/combine", std::move(combine)));

  mpc::broadcast_blob(cluster, 0, keys::kBox, fanout);

  Serializer snap;
  snap.write(static_cast<std::uint64_t>(dim));
  snap.write(delta);
  cluster.run_round(StepSpec("quantize/snap", std::move(snap)));
}

std::uint64_t run_attempt(Cluster& cluster, std::size_t dim,
                          const PartitionParams& params, std::size_t fanout,
                          PathOutput output) {
  const bool tree = output == PathOutput::kTreeEdges;
  const obs::Span span("emb",
                       tree ? "partition-attempt" : "path-records-attempt");
  Serializer build;
  build.write(params);
  cluster.run_round(StepSpec("grids/build", std::move(build)));
  mpc::broadcast_blob(cluster, 0, keys::kGrids.name, fanout);

  Serializer paths;
  paths.write(static_cast<std::uint64_t>(dim));
  if (!tree) {
    paths.write(
        static_cast<std::uint8_t>(output == PathOutput::kRecordsAndLinks));
  }
  cluster.run_round(
      StepSpec(tree ? "paths/compute" : "paths/records", std::move(paths)));

  // Converge-cast of the per-machine failure counters.
  mpc::sum_u64(cluster, keys::kFail.name, keys::kFailTotal.name, 0);
  return keys::kFailTotal.in(cluster.store(0))
             ? keys::kFailTotal.get(cluster.store(0))
             : 0;
}

namespace {

constexpr std::uint32_t kNoteMagic = 0x32746f6e;  // "not2"

/// Host-side decisions recorded in the cluster's driver note (and thus in
/// every snapshot): Delta and the Monte Carlo attempt in progress. A
/// resumed run fast-forwards the rounds that produced these values, so it
/// reads them from here instead of recomputing them from stores it is
/// skipping over. The lattice cell needs no entry: quantize/combine leaves
/// it on rank 0 (keys::kCell), inside every later snapshot.
struct ResumeNote {
  std::uint64_t delta = 0;
  std::uint32_t attempt = 0;

  mpc::Buffer to_buffer() const {
    Serializer s(16);
    s.write(kNoteMagic);
    s.write(delta);
    s.write(attempt);
    return mpc::Buffer(s.take());
  }

  static std::optional<ResumeNote> from_buffer(const mpc::Buffer& buffer) {
    if (buffer.empty()) return std::nullopt;
    try {
      Deserializer d(buffer.span());
      if (d.read<std::uint32_t>() != kNoteMagic) return std::nullopt;
      ResumeNote note;
      note.delta = d.read<std::uint64_t>();
      note.attempt = d.read<std::uint32_t>();
      return note;
    } catch (const MpteError&) {
      return std::nullopt;
    }
  }
};

}  // namespace

Result<MpcRun> run_mpc_pipeline(Cluster& cluster, const PointSet& points,
                                const MpcEmbedOptions& options,
                                PathOutput output, std::string_view who) {
  const std::string prefix(who);
  if (points.size() < 2) {
    return Status(StatusCode::kInvalidArgument,
                  prefix + ": need at least two points");
  }
  if (const Status retries = check_retries(options); !retries.ok()) {
    return retries;
  }
  MpcRun run;
  run.rounds_before = cluster.logical_rounds();
  const std::size_t n = points.size();

  // When the cluster was just restored from a snapshot it is
  // fast-forwarding: rounds up to the snapshot point are skipped, and
  // host-side reads in that prefix would observe snapshot-time state
  // rather than the values the original run saw. The driver note captured
  // with the snapshot disambiguates (see ResumeNote above). Each use
  // below re-checks fast_forwarding() at its own program point, so a
  // stale note from before the snapshot's pipeline is never consulted.
  const std::optional<ResumeNote> restored =
      cluster.fast_forwarding()
          ? ResumeNote::from_buffer(cluster.driver_note())
          : std::nullopt;

  // Stage 1: the MPC FJLT leaves its output resident in the block layout;
  // without it the input is scattered in that layout.
  const std::optional<FjltConfig> fjlt =
      fjlt_if_it_pays(n, points.dim(), options);
  if (fjlt) {
    mpc_fjlt(cluster, points, *fjlt);
  } else {
    mpc::scatter_points(cluster, points);
  }
  run.fjlt_applied = fjlt.has_value();
  run.dim = fjlt ? fjlt->output_dim : points.dim();

  Result<std::uint64_t> delta = std::uint64_t{0};
  if (cluster.fast_forwarding() && restored) {
    // The snapshot lies beyond the quantization that consumed the
    // transformed points; take the Delta the original run chose.
    delta = restored->delta;
  } else {
    const obs::Span span("emb", "delta");
    // Deriving Delta is the one host read of the transformed points.
    std::optional<PointSet> read_back;
    delta = resolve_delta(options, [&]() -> const PointSet& {
      return fjlt ? read_back.emplace(mpc::gather_points(cluster, n, run.dim))
                  : points;
    });
  }
  if (!delta.ok()) return delta.status();

  // Record Delta before the rounds it feeds: every snapshot taken from
  // here on carries it.
  ResumeNote note;
  note.delta = *delta;
  cluster.set_driver_note(note.to_buffer());

  // Stage 2: distributed quantization.
  mpc_quantize(cluster, run.dim, *delta, options.broadcast_fanout);
  run.cell = keys::kCell.get(cluster.store(0));

  Result<PartitionPlan> plan =
      plan_partition(PartitionMethod::kHybrid, n, run.dim, *delta, options);
  if (!plan.ok()) return plan.status();
  run.plan = std::move(plan).value();

  // Stages 3–4 with Monte Carlo retries.
  for (;; ++run.attempt) {
    note.attempt = static_cast<std::uint32_t>(run.attempt);
    cluster.set_driver_note(note.to_buffer());
    run.params =
        partition_params(run.plan, attempt_seed(options.seed, run.attempt));
    std::uint64_t failures = run_attempt(cluster, run.dim, run.params,
                                         options.broadcast_fanout, output);
    // While fast-forwarding, the fail-total read above observed the
    // snapshot round's state, not this attempt's own converge-cast. The
    // noted attempt disambiguates: every attempt before the one in
    // progress at the snapshot had failed (or there would have been no
    // later attempt), and the in-progress attempt's own total is exactly
    // what is resident at the snapshot point.
    if (cluster.fast_forwarding() && restored &&
        run.attempt < static_cast<int>(restored->attempt)) {
      failures = 1;
    }
    if (failures == 0) return run;
    if (run.attempt >= options.max_retries) {
      return Status(StatusCode::kCoverageFailure,
                    prefix + ": ball partitioning left " +
                        std::to_string(failures) +
                        " (point, level, bucket) events uncovered after " +
                        std::to_string(run.attempt + 1) + " attempts");
    }
  }
}

void erase_run_keys(Cluster& cluster,
                    std::initializer_list<std::string> extra) {
  for (MachineId id = 0; id < cluster.num_machines(); ++id) {
    auto& store = cluster.store(id);
    for (const std::string& key : {keys::kIdx.name, keys::kPts.name,
                                   keys::kFail.name, keys::kFailTotal.name,
                                   keys::kCell.name}) {
      store.erase(key);
    }
    for (const std::string& key : extra) store.erase(key);
  }
}

}  // namespace mpte::detail
