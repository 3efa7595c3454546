#include "transform/mpc_fjlt.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "mpc/channel.hpp"
#include "mpc/point_blocks.hpp"
#include "mpc/primitives.hpp"
#include "mpc/step.hpp"
#include "obs/trace.hpp"
#include "transform/walsh_hadamard.hpp"

namespace mpte {
namespace {

using mpc::StepParams;
using mpc::Channel;
using mpc::Cluster;
using mpc::KV;
using mpc::MachineContext;
using mpc::MachineId;
using mpc::RegisterStep;
using mpc::Step;
using mpc::StepSpec;

/// Channel names for the FJLT message streams (see RoundStats
/// channel_bytes).
constexpr const char* kChunkChannel = "fjlt/chunks";
constexpr const char* kPartialChannel = "fjlt/partials";
constexpr const char* kElemChannel = "fjlt/elems";

/// Header preceding a transposed chunk on the wire.
struct ChunkHeader {
  std::uint64_t point;
  std::uint32_t row_block;     // j: which row-block the chunk came from
  std::uint32_t column_block;  // c: which column-block it belongs to
};

/// Header preceding a per-point partial output vector on the wire.
struct PartialHeader {
  std::uint64_t point;
};

/// One tensor element on the wire (general multi-stage path).
struct ElemRecord {
  std::uint64_t point;
  std::uint32_t index;  // global coordinate index in [0, d_padded)
  std::uint32_t pad = 0;
  double value;
};

/// The multilevel mode's Kronecker geometry, a pure function of (d_padded,
/// block, M): stage t butterflies index bits [offset(t), offset(t) +
/// bits(t)), and one machine holds each fiber (a point's elements that
/// agree outside those bits).
struct KronGeometry {
  std::size_t total_bits;
  std::size_t chunk_bits;
  std::size_t stages;
  std::size_t machines;

  KronGeometry(std::size_t d_pad, std::size_t block, std::size_t machines)
      : total_bits(static_cast<std::size_t>(floor_log2(d_pad))),
        chunk_bits(static_cast<std::size_t>(floor_log2(block))),
        stages(std::max<std::size_t>(1, ceil_div(total_bits, chunk_bits))),
        machines(machines) {}

  std::size_t offset(std::size_t t) const { return t * chunk_bits; }
  std::size_t bits(std::size_t t) const {
    return std::min(chunk_bits, total_bits - offset(t));
  }
  /// Fiber id: the index with stage t's bits removed, plus the point.
  std::uint64_t group(std::size_t t, std::uint64_t point,
                      std::uint32_t e) const {
    const std::uint32_t low = e & ((1u << offset(t)) - 1u);
    const auto high = static_cast<std::uint32_t>(e >> (offset(t) + bits(t)));
    return hash_combine(mix64(point ^ 0x9e0417ull), (high << offset(t)) | low);
  }
  MachineId machine(std::size_t t, std::uint64_t point,
                    std::uint32_t e) const {
    return static_cast<MachineId>(group(t, point, e) % machines);
  }
};

// --- registered steps -------------------------------------------------------
// The sharded-mode geometry (g row blocks of size `block`, chunk_len
// offsets per column block, round-robin machine assignment) is a pure
// function of (config, block, M), so every step recomputes it from its
// serialized params rather than capturing host state.

Step make_local_transform(StepParams params) {
  Deserializer d(params);
  const auto config = d.read<FjltConfig>();
  return [config](MachineContext& ctx) {
    const auto data = mpc::keys::kPts.get(ctx.store());
    const std::size_t count = data.size() / config.input_dim;
    const Fjlt fjlt(config);
    std::vector<double> out;
    out.reserve(count * config.output_dim);
    for (std::size_t i = 0; i < count; ++i) {
      const std::span<const double> p(data.data() + i * config.input_dim,
                                      config.input_dim);
      const auto mapped = fjlt.apply(p);
      out.insert(out.end(), mapped.begin(), mapped.end());
    }
    mpc::keys::kPts.set(ctx.store(), out);
  };
}

Step make_transpose(StepParams params) {
  Deserializer d(params);
  const auto config = d.read<FjltConfig>();
  const auto block = static_cast<std::size_t>(d.read<std::uint64_t>());
  return [config, block](MachineContext& ctx) {
    const std::size_t m = ctx.num_machines();
    const std::size_t g = config.padded_dim / block;
    const std::size_t chunk_len = block / g;
    const auto col_machine = [&](std::size_t point, std::size_t c) {
      return static_cast<MachineId>((point * g + c) % m);
    };
    const auto idx = ctx.store().get_vector<KV>("fjlt/rows/idx");
    auto data = ctx.store().get_vector<double>("fjlt/rows/data");
    ctx.store().erase("fjlt/rows/idx");
    ctx.store().erase("fjlt/rows/data");
    std::vector<Serializer> out(m);
    for (std::size_t rec = 0; rec < idx.size(); ++rec) {
      const std::size_t point = idx[rec].key;
      const std::size_t j = idx[rec].value;
      const std::span<double> row(data.data() + rec * block, block);
      for (std::size_t o = 0; o < block; ++o) {
        row[o] *= fjlt_d_sign(config.seed, j * block + o);
      }
      fwht(row);
      for (std::size_t c = 0; c < g; ++c) {
        Serializer& s = out[col_machine(point, c)];
        s.write(ChunkHeader{point, static_cast<std::uint32_t>(j),
                            static_cast<std::uint32_t>(c)});
        s.write_span(
            std::span<const double>(row.data() + c * chunk_len, chunk_len));
      }
    }
    for (MachineId dst = 0; dst < m; ++dst) {
      if (out[dst].size() > 0) {
        ctx.send(dst, std::move(out[dst]), kChunkChannel);
      }
    }
  };
}

Step make_collect_columns(StepParams params) {
  Deserializer d(params);
  const auto config = d.read<FjltConfig>();
  const auto block = static_cast<std::size_t>(d.read<std::uint64_t>());
  return [config, block](MachineContext& ctx) {
    const std::size_t g = config.padded_dim / block;
    const std::size_t chunk_len = block / g;
    std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<double>>
        blocks;
    for (const auto& msg : ctx.inbox()) {
      Deserializer in(msg.payload);
      while (!in.exhausted()) {
        const auto header = in.read<ChunkHeader>();
        const auto chunk = in.read_vector<double>();
        auto& blk = blocks[{header.point, header.column_block}];
        if (blk.empty()) blk.assign(g * chunk_len, 0.0);
        std::copy(chunk.begin(), chunk.end(),
                  blk.begin() + header.row_block * chunk_len);
      }
    }
    std::vector<KV> idx;
    std::vector<double> data;
    for (auto& [key, blk] : blocks) {
      idx.push_back(KV{key.first, key.second});
      data.insert(data.end(), blk.begin(), blk.end());
    }
    ctx.store().set_vector("fjlt/cols/idx", idx);
    ctx.store().set_vector("fjlt/cols/data", data);
  };
}

Step make_fwht_g_partials(StepParams params) {
  Deserializer d(params);
  const auto config = d.read<FjltConfig>();
  const auto block = static_cast<std::size_t>(d.read<std::uint64_t>());
  const auto n = static_cast<std::size_t>(d.read<std::uint64_t>());
  return [config, block, n](MachineContext& ctx) {
    const std::size_t m = ctx.num_machines();
    const std::size_t g = config.padded_dim / block;
    const std::size_t chunk_len = block / g;
    const std::size_t k = config.output_dim;
    const double h_scale =
        1.0 / std::sqrt(static_cast<double>(config.padded_dim));
    const mpc::PointBlocks owners(n, m);
    const auto idx = ctx.store().get_vector<KV>("fjlt/cols/idx");
    auto data = ctx.store().get_vector<double>("fjlt/cols/data");
    ctx.store().erase("fjlt/cols/idx");
    ctx.store().erase("fjlt/cols/data");

    // Pre-aggregate partials per point across this machine's blocks.
    std::map<std::uint64_t, std::vector<double>> partials;
    std::vector<double> column(g);
    for (std::size_t rec = 0; rec < idx.size(); ++rec) {
      const std::uint64_t point = idx[rec].key;
      const std::size_t c = idx[rec].value;
      const std::span<double> blk(data.data() + rec * g * chunk_len,
                                  g * chunk_len);
      for (std::size_t o = 0; o < chunk_len; ++o) {
        for (std::size_t j = 0; j < g; ++j) {
          column[j] = blk[j * chunk_len + o];
        }
        fwht(column);
        for (std::size_t j = 0; j < g; ++j) {
          blk[j * chunk_len + o] = column[j] * h_scale;
        }
      }
      auto& acc = partials[point];
      if (acc.empty()) acc.assign(k, 0.0);
      for (std::size_t j = 0; j < g; ++j) {
        for (std::size_t o = 0; o < chunk_len; ++o) {
          const std::size_t coord = j * block + c * chunk_len + o;
          const double value = blk[j * chunk_len + o];
          if (value == 0.0) continue;
          for (std::size_t row = 0; row < k; ++row) {
            const double p_entry =
                fjlt_p_entry(config.seed, config.q, row, coord);
            if (p_entry != 0.0) acc[row] += p_entry * value;
          }
        }
      }
    }
    std::vector<Serializer> out(m);
    for (const auto& [point, acc] : partials) {
      Serializer& s = out[owners.owner(point)];
      s.write(PartialHeader{point});
      s.write_vector(acc);
    }
    for (MachineId dst = 0; dst < m; ++dst) {
      if (out[dst].size() > 0) {
        ctx.send(dst, std::move(out[dst]), kPartialChannel);
      }
    }
  };
}

Step make_assemble(StepParams params) {
  Deserializer d(params);
  const auto k = static_cast<std::size_t>(d.read<std::uint64_t>());
  const auto n = static_cast<std::size_t>(d.read<std::uint64_t>());
  return [k, n](MachineContext& ctx) {
    const double out_scale = 1.0 / std::sqrt(static_cast<double>(k));
    std::map<std::uint64_t, std::vector<double>> totals;
    for (const auto& msg : ctx.inbox()) {
      Deserializer in(msg.payload);
      while (!in.exhausted()) {
        const auto header = in.read<PartialHeader>();
        const auto part = in.read_vector<double>();
        auto& acc = totals[header.point];
        if (acc.empty()) acc.assign(k, 0.0);
        for (std::size_t row = 0; row < k; ++row) acc[row] += part[row];
      }
    }
    // Every point of this machine's block gets a row; a point no partial
    // reached (all its transformed coordinates were zero) maps to 0.
    const mpc::PointBlocks blocks(n, ctx.num_machines());
    std::vector<std::uint64_t> idx;
    std::vector<double> data;
    for (std::size_t point = blocks.begin(ctx.id());
         point < blocks.end(ctx.id()); ++point) {
      idx.push_back(point);
      const auto it = totals.find(point);
      for (std::size_t row = 0; row < k; ++row) {
        data.push_back(it == totals.end() ? 0.0 : it->second[row] * out_scale);
      }
    }
    mpc::keys::kIdx.set(ctx.store(), idx);
    mpc::keys::kPts.set(ctx.store(), data);
  };
}

Step make_kron_stage(StepParams params) {
  Deserializer d(params);
  const auto config = d.read<FjltConfig>();
  const auto block = static_cast<std::size_t>(d.read<std::uint64_t>());
  const auto t = static_cast<std::size_t>(d.read<std::uint64_t>());
  const auto n = static_cast<std::size_t>(d.read<std::uint64_t>());
  return [config, block, t, n](MachineContext& ctx) {
    const std::size_t m_machines = ctx.num_machines();
    const std::size_t d_pad = config.padded_dim;
    const std::size_t k = config.output_dim;
    const KronGeometry geometry(d_pad, block, m_machines);
    const mpc::PointBlocks owners(n, m_machines);
    const double h_scale = 1.0 / std::sqrt(static_cast<double>(d_pad));

    // Collect this stage's records (store for stage 0, inbox after).
    std::vector<ElemRecord> records;
    if (t == 0) {
      records = ctx.store().get_vector<ElemRecord>("fjlt/elems");
      ctx.store().erase("fjlt/elems");
      for (ElemRecord& rec : records) {
        rec.value *= fjlt_d_sign(config.seed, rec.index);
      }
    } else {
      records = Channel<ElemRecord>{kElemChannel}.receive(ctx);
    }

    // Group into axis-t fibers and butterfly each.
    const std::size_t offset = geometry.offset(t);
    const std::size_t fiber = std::size_t{1} << geometry.bits(t);
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<ElemRecord>>
        fibers;
    for (const ElemRecord& rec : records) {
      fibers[std::make_pair(rec.point,
                            geometry.group(t, rec.point, rec.index))]
          .push_back(rec);
    }
    std::vector<double> buffer(fiber);
    const bool last = t + 1 == geometry.stages;
    const Channel<ElemRecord> elems{kElemChannel};
    std::vector<std::vector<ElemRecord>> route(m_machines);
    std::map<std::uint64_t, std::vector<double>> partials;
    for (auto& [key, recs] : fibers) {
      buffer.assign(fiber, 0.0);
      for (const ElemRecord& rec : recs) {
        buffer[(rec.index >> offset) & (fiber - 1)] = rec.value;
      }
      fwht(buffer);
      // Reconstruct indices: all fiber digits exist even if the
      // arriving records were sparse (they never are — every digit
      // was scattered — but zero padding keeps this exact anyway).
      const std::uint32_t base_index =
          recs.front().index &
          ~static_cast<std::uint32_t>((fiber - 1) << offset);
      for (std::size_t digit = 0; digit < fiber; ++digit) {
        const std::uint32_t e =
            base_index | static_cast<std::uint32_t>(digit << offset);
        const double value = buffer[digit];
        if (last) {
          if (value == 0.0) continue;
          auto& acc = partials[key.first];
          if (acc.empty()) acc.assign(k, 0.0);
          const double scaled = value * h_scale;
          for (std::size_t row = 0; row < k; ++row) {
            const double p_entry =
                fjlt_p_entry(config.seed, config.q, row, e);
            if (p_entry != 0.0) acc[row] += p_entry * scaled;
          }
        } else {
          // Route for the next stage. Batched per destination below.
          route[geometry.machine(t + 1, key.first, e)].push_back(
              ElemRecord{key.first, e, 0, value});
        }
      }
    }
    if (last) {
      std::vector<Serializer> out(m_machines);
      for (const auto& [point, acc] : partials) {
        Serializer& s = out[owners.owner(point)];
        s.write(PartialHeader{point});
        s.write_vector(acc);
      }
      for (MachineId dst = 0; dst < m_machines; ++dst) {
        if (out[dst].size() > 0) {
          ctx.send(dst, std::move(out[dst]), kPartialChannel);
        }
      }
    } else {
      for (MachineId dst = 0; dst < m_machines; ++dst) {
        if (!route[dst].empty()) elems.send(ctx, dst, route[dst]);
      }
    }
  };
}

const RegisterStep kRegLocalTransform{"fjlt/local-transform",
                                      make_local_transform};
const RegisterStep kRegTranspose{"fjlt/D+fwht_b+transpose", make_transpose};
const RegisterStep kRegCollectColumns{"fjlt/collect-columns",
                                      make_collect_columns};
const RegisterStep kRegFwhtGPartials{"fjlt/fwht_g+P-partials",
                                     make_fwht_g_partials};
const RegisterStep kRegAssemble{"fjlt/assemble", make_assemble};
const RegisterStep kRegKronStage{"fjlt/kron-stage", make_kron_stage};

StepSpec config_block_spec(const char* name, const FjltConfig& config,
                           std::size_t block) {
  Serializer s;
  s.write(config);
  s.write(static_cast<std::uint64_t>(block));
  return StepSpec(name, std::move(s));
}

/// Local mode: every machine holds whole points and applies the sequential
/// transform to its block in place — zero communication, one
/// (empty-message) round.
void run_local_mode(Cluster& cluster, const PointSet& points,
                    const FjltConfig& config) {
  mpc::scatter_points(cluster, points);
  Serializer local;
  local.write(config);
  cluster.run_round(StepSpec("fjlt/local-transform", std::move(local)));
}

/// Owner-side accumulation of P partials into the final k-dim outputs in
/// the block layout (the sharded paths' last round).
void assemble_outputs_round(Cluster& cluster, std::size_t k, std::size_t n) {
  Serializer assemble;
  assemble.write(static_cast<std::uint64_t>(k));
  assemble.write(static_cast<std::uint64_t>(n));
  cluster.run_round(StepSpec("fjlt/assemble", std::move(assemble)));
}

/// Sharded mode: each point's padded coordinates are split into g row
/// blocks of size b (g <= b), spread round-robin over machines.
void run_sharded_mode(Cluster& cluster, const PointSet& points,
                      const FjltConfig& config, std::size_t block) {
  const std::size_t m = cluster.num_machines();
  const std::size_t n = points.size();
  const std::size_t d_pad = config.padded_dim;
  const std::size_t g = d_pad / block;  // row blocks per point
  const std::size_t k = config.output_dim;

  const auto row_machine = [&](std::size_t point, std::size_t j) {
    return static_cast<MachineId>((point * g + j) % m);
  };

  // Host-side scatter of padded row blocks (suppressed while
  // fast-forwarding a restored run: the restored stores already hold it).
  if (!cluster.fast_forwarding()) {
    std::vector<std::vector<KV>> idx(m);
    std::vector<std::vector<double>> data(m);
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = points[i];
      for (std::size_t j = 0; j < g; ++j) {
        const MachineId dst = row_machine(i, j);
        idx[dst].push_back(KV{i, j});
        for (std::size_t o = 0; o < block; ++o) {
          const std::size_t coord = j * block + o;
          data[dst].push_back(coord < points.dim() ? p[coord] : 0.0);
        }
      }
    }
    for (MachineId id = 0; id < m; ++id) {
      cluster.store(id).set_vector("fjlt/rows/idx", idx[id]);
      cluster.store(id).set_vector("fjlt/rows/data", data[id]);
    }
  }

  // Round 1: apply D, local FWHT_b (unnormalized; one global scale is
  // applied after the cross-block stage so the arithmetic matches the
  // sequential transform), then transpose-route chunks to column blocks.
  cluster.run_round(
      config_block_spec("fjlt/D+fwht_b+transpose", config, block));

  // Round 2: assemble column blocks (point, c) holding a g x chunk_len
  // matrix in row-block-major order.
  cluster.run_round(config_block_spec("fjlt/collect-columns", config, block));

  // Round 3: cross-block FWHT_g per offset, global 1/sqrt(d) scale, then
  // local P partial sums routed to each point's owner.
  Serializer partials;
  partials.write(config);
  partials.write(static_cast<std::uint64_t>(block));
  partials.write(static_cast<std::uint64_t>(n));
  cluster.run_round(StepSpec("fjlt/fwht_g+P-partials", std::move(partials)));

  // Round 4: owners accumulate partials and apply the k^{-1/2} scale.
  assemble_outputs_round(cluster, k, n);
}

/// General multi-stage mode: H_d = ⊗_t H_{f_t} over bit-chunks of width
/// <= log2(block). Stage t co-locates, per point, the f_t elements of
/// every axis-t fiber (group = index with the chunk's bits removed),
/// applies the chunk's butterflies locally, and re-routes for stage t+1.
/// Works for any d_padded <= block^m — the eps < 1/2 regime.
void run_multilevel_mode(Cluster& cluster, const PointSet& points,
                         const FjltConfig& config, std::size_t block,
                         std::size_t* levels_out) {
  const std::size_t m_machines = cluster.num_machines();
  const std::size_t n = points.size();
  const std::size_t d_pad = config.padded_dim;
  const std::size_t k = config.output_dim;
  const KronGeometry geometry(d_pad, block, m_machines);
  if (levels_out != nullptr) *levels_out = geometry.stages;

  // Host scatter: every padded element routed to its stage-0 machine
  // (suppressed while fast-forwarding, like the sharded scatter).
  if (!cluster.fast_forwarding()) {
    std::vector<std::vector<ElemRecord>> init(m_machines);
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = points[i];
      for (std::uint32_t e = 0; e < d_pad; ++e) {
        const double value = e < points.dim() ? p[e] : 0.0;
        init[geometry.machine(0, i, e)].push_back(ElemRecord{i, e, 0, value});
      }
    }
    for (MachineId id = 0; id < m_machines; ++id) {
      cluster.store(id).set_vector("fjlt/elems", init[id]);
    }
  }

  for (std::size_t t = 0; t < geometry.stages; ++t) {
    Serializer stage;
    stage.write(config);
    stage.write(static_cast<std::uint64_t>(block));
    stage.write(static_cast<std::uint64_t>(t));
    stage.write(static_cast<std::uint64_t>(n));
    cluster.run_round(StepSpec("fjlt/kron-stage", std::move(stage)),
                      "fjlt/kron-stage-" + std::to_string(t));
  }

  assemble_outputs_round(cluster, k, n);
}

}  // namespace

MpcFjltReport mpc_fjlt(mpc::Cluster& cluster, const PointSet& points,
                       const FjltConfig& config) {
  if (points.dim() != config.input_dim) {
    throw MpteError("mpc_fjlt: point dimension does not match config");
  }
  const std::size_t rounds_before = cluster.logical_rounds();
  const obs::Span span("fjlt", "mpc_fjlt", "points", points.size());
  const std::size_t budget = cluster.config().local_memory_bytes;
  const std::size_t m = cluster.num_machines();
  const std::size_t d_pad = config.padded_dim;

  // Whole-point mode if a machine's chunk of padded points, outputs, and an
  // estimated CSR of P all fit comfortably in half the budget.
  const std::size_t chunk_points = ceil_div(points.size(), m);
  const double nnz_estimate =
      2.0 * config.q * static_cast<double>(config.output_dim) *
          static_cast<double>(d_pad) +
      64.0;
  const std::size_t local_mode_bytes =
      chunk_points * 8 * (d_pad + config.output_dim) +
      static_cast<std::size_t>(16.0 * nnz_estimate);

  MpcFjltReport report;
  if (local_mode_bytes * 2 <= budget || d_pad < 4) {
    const obs::Span mode_span("fjlt", "local-mode");
    run_local_mode(cluster, points, config);
  } else {
    // Largest power-of-two fiber a machine can hold with headroom.
    std::size_t block_cap = 1;
    while (8 * (block_cap * 2) * 4 <= budget) block_cap *= 2;
    if (block_cap < 2) {
      throw mpc::MpcViolation(
          "mpc_fjlt: local memory cannot hold even a 2-element fiber; "
          "increase local memory");
    }
    report.sharded = true;
    if (block_cap * block_cap >= d_pad) {
      // One transpose suffices: pick the balanced block ~ sqrt(d_pad).
      report.block_size = std::min(
          d_pad, next_power_of_two(static_cast<std::size_t>(
                     std::ceil(std::sqrt(static_cast<double>(d_pad))))));
      report.kronecker_levels = 2;
      const obs::Span mode_span("fjlt", "sharded-mode", "block",
                                report.block_size);
      run_sharded_mode(cluster, points, config, report.block_size);
    } else {
      // General m-stage pipeline for the eps < 1/2 regime.
      report.block_size = block_cap;
      const obs::Span mode_span("fjlt", "multilevel-mode", "block",
                                report.block_size);
      run_multilevel_mode(cluster, points, config, report.block_size,
                          &report.kronecker_levels);
    }
  }
  report.rounds = cluster.logical_rounds() - rounds_before;
  return report;
}

}  // namespace mpte
