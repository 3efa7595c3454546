#include "core/mpc_stages.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "mpc/step.hpp"
#include "obs/trace.hpp"

namespace mpte::detail {

using mpc::StepParams;
using mpc::Cluster;
using mpc::KV;
using mpc::MachineContext;
using mpc::MachineId;
using mpc::RegisterStep;
using mpc::Step;
using mpc::StepSpec;

void scatter_points(Cluster& cluster, const PointSet& points) {
  // Host-side write: suppressed while fast-forwarding a restored run (the
  // restored stores already reflect it — see mpc::Cluster::resume_from).
  if (cluster.fast_forwarding()) return;
  const obs::Span span("emb", "scatter", "points", points.size());
  const std::size_t m = cluster.num_machines();
  const std::size_t n = points.size();
  const std::size_t block = ceil_div(n, m);
  for (MachineId id = 0; id < m; ++id) {
    const std::size_t begin = std::min(n, id * block);
    const std::size_t end = std::min(n, begin + block);
    std::vector<std::uint64_t> idx;
    std::vector<double> data;
    idx.reserve(end - begin);
    data.reserve((end - begin) * points.dim());
    for (std::size_t i = begin; i < end; ++i) {
      idx.push_back(i);
      const auto p = points[i];
      data.insert(data.end(), p.begin(), p.end());
    }
    keys::kIdx.set(cluster.store(id), idx);
    keys::kPts.set(cluster.store(id), data);
  }
}

RawTree assemble_raw_tree(std::vector<KV> edges, std::span<const KV> leaves,
                          std::uint64_t root_id, std::size_t num_points) {
  // Edges by (parent, child): each node's children are one contiguous run,
  // in the ascending order the BFS appends them.
  std::sort(edges.begin(), edges.end(), [](const KV& a, const KV& b) {
    return a.value != b.value ? a.value < b.value : a.key < b.key;
  });
  // Node indexes are 32-bit (RawNode::parent is an int32_t).
  if (edges.size() >= std::numeric_limits<std::int32_t>::max()) {
    throw MpteError("mpc_embed: too many tree edges to assemble");
  }
  const auto m = static_cast<std::uint32_t>(edges.size());
  // Slot e < m stands for edge e's child, slot m for the root.
  const auto id_of = [&](std::uint32_t slot) {
    return slot < m ? edges[slot].key : root_id;
  };
  std::vector<std::uint32_t> by_id(std::size_t{m} + 1);
  std::iota(by_id.begin(), by_id.end(), 0u);
  std::sort(by_id.begin(), by_id.end(), [&](std::uint32_t a, std::uint32_t b) {
    return id_of(a) < id_of(b) || (id_of(a) == id_of(b) && a < b);
  });
  // Join slots (by id) against edges (by parent): [run_begin, run_end) of
  // a slot are the edges whose parent is that slot's id.
  std::vector<std::uint32_t> run_begin(by_id.size()), run_end(by_id.size());
  std::uint32_t e = 0;
  for (const std::uint32_t slot : by_id) {
    const std::uint64_t id = id_of(slot);
    while (e < m && edges[e].value < id) ++e;
    std::uint32_t f = e;
    while (f < m && edges[f].value == id) ++f;
    run_begin[slot] = e;
    run_end[slot] = f;
  }

  // BFS over the runs; the node order stays topological.
  RawTree raw;
  raw.nodes.reserve(by_id.size());
  raw.nodes.push_back(RawTree::RawNode{root_id, -1, 0});
  std::vector<std::uint32_t> slot_of_node{m};
  slot_of_node.reserve(by_id.size());
  for (std::size_t head = 0; head < raw.nodes.size(); ++head) {
    const std::uint32_t slot = slot_of_node[head];
    const std::uint32_t level = raw.nodes[head].level + 1;
    for (std::uint32_t c = run_begin[slot]; c < run_end[slot]; ++c) {
      raw.nodes.push_back(RawTree::RawNode{
          edges[c].key, static_cast<std::int32_t>(head), level});
      slot_of_node.push_back(c);
    }
  }

  // (id, first BFS index) for every reached id, ascending by id.
  constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> first_node(by_id.size(), kUnreached);
  for (std::size_t i = raw.nodes.size(); i-- > 0;) {
    first_node[slot_of_node[i]] = static_cast<std::uint32_t>(i);
  }
  std::vector<KV> index_by_id;
  index_by_id.reserve(raw.nodes.size());
  for (const std::uint32_t slot : by_id) {
    if (first_node[slot] == kUnreached) continue;
    if (!index_by_id.empty() && index_by_id.back().key == id_of(slot)) {
      index_by_id.back().value =
          std::min<std::uint64_t>(index_by_id.back().value, first_node[slot]);
    } else {
      index_by_id.push_back(KV{id_of(slot), first_node[slot]});
    }
  }

  raw.bottom_of_point.assign(num_points, 0);
  for (const KV& leaf : leaves) {
    const auto it = std::lower_bound(
        index_by_id.begin(), index_by_id.end(), leaf.value,
        [](const KV& entry, std::uint64_t id) { return entry.key < id; });
    if (it == index_by_id.end() || it->key != leaf.value ||
        leaf.key >= num_points) {
      throw MpteError("mpc_embed: leaf record (point " +
                      std::to_string(leaf.key) + ", node " +
                      std::to_string(leaf.value) +
                      ") names no node of the assembled tree");
    }
    raw.bottom_of_point[leaf.key] = static_cast<std::uint32_t>(it->value);
  }
  return raw;
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
    double width = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      width = std::max(width, hi[j] - lo[j]);
    }
    const double cell =
        width > 0.0 ? width / static_cast<double>(delta - 1) : 1.0;
    Serializer s(sizeof(double) + wire_size<double>(dim));
    s.write(cell);
    s.write_vector(lo);
    ctx.store().set_blob(keys::kBox, s.take());
  };
}

Step make_quantize_snap(StepParams params) {
  Deserializer pd(params);
  const auto dim = static_cast<std::size_t>(pd.read<std::uint64_t>());
  const auto delta = pd.read<std::uint64_t>();
  return [dim, delta](MachineContext& ctx) {
    Deserializer d(ctx.store().blob(keys::kBox));
    const auto cell = d.read<double>();
    const auto lo = d.read_vector<double>();
    ctx.store().erase(keys::kBox);
    auto data = keys::kPts.get(ctx.store());
    for (std::size_t e = 0; e < data.size(); ++e) {
      const std::size_t j = e % dim;
      const double offset = (data[e] - lo[j]) / cell;
      const double snapped =
          std::clamp(std::round(offset), 0.0, static_cast<double>(delta - 1));
      data[e] = snapped + 1.0;
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

/// Broadcast of the partition parameters (stage 3).
void broadcast_params(Cluster& cluster, const PartitionParams& params,
                      std::size_t fanout) {
  Serializer build;
  build.write(params);
  cluster.run_round(StepSpec("grids/build", std::move(build)));
  mpc::broadcast_blob(cluster, 0, keys::kGrids.name, fanout);
}

/// Converge-cast of the per-machine failure counters; returns the total.
std::uint64_t total_failures(Cluster& cluster) {
  mpc::sum_u64(cluster, keys::kFail.name, keys::kFailTotal.name, 0);
  return keys::kFailTotal.in(cluster.store(0))
             ? keys::kFailTotal.get(cluster.store(0))
             : 0;
}

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

std::uint64_t run_partition_attempt(Cluster& cluster, std::size_t dim,
                                    const PartitionParams& params,
                                    std::size_t fanout) {
  const obs::Span span("emb", "partition-attempt");
  broadcast_params(cluster, params, fanout);

  Serializer compute;
  compute.write(static_cast<std::uint64_t>(dim));
  cluster.run_round(StepSpec("paths/compute", std::move(compute)));

  return total_failures(cluster);
}

std::uint64_t run_path_records_attempt(Cluster& cluster, std::size_t dim,
                                       const PartitionParams& params,
                                       std::size_t fanout,
                                       bool emit_links) {
  const obs::Span span("emb", "path-records-attempt");
  broadcast_params(cluster, params, fanout);

  Serializer records;
  records.write(static_cast<std::uint64_t>(dim));
  records.write(static_cast<std::uint8_t>(emit_links ? 1 : 0));
  cluster.run_round(StepSpec("paths/records", std::move(records)));

  return total_failures(cluster);
}

}  // namespace mpte::detail
