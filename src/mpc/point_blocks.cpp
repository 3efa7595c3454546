#include "mpc/point_blocks.hpp"

#include <vector>

#include "common/math_util.hpp"
#include "obs/trace.hpp"

namespace mpte::mpc {

PointBlocks::PointBlocks(std::size_t n, std::size_t m)
    : n(n), block(std::max<std::size_t>(1, ceil_div(n, m))) {}

void scatter_points(Cluster& cluster, const PointSet& points) {
  if (cluster.fast_forwarding()) return;
  const obs::Span span("emb", "scatter", "points", points.size());
  const PointBlocks blocks(points.size(), cluster.num_machines());
  for (MachineId id = 0; id < cluster.num_machines(); ++id) {
    std::vector<std::uint64_t> idx;
    std::vector<double> data;
    idx.reserve(blocks.end(id) - blocks.begin(id));
    data.reserve(idx.capacity() * points.dim());
    for (std::size_t i = blocks.begin(id); i < blocks.end(id); ++i) {
      idx.push_back(i);
      const auto p = points[i];
      data.insert(data.end(), p.begin(), p.end());
    }
    keys::kIdx.set(cluster.store(id), idx);
    keys::kPts.set(cluster.store(id), data);
  }
}

PointSet gather_points(const Cluster& cluster, std::size_t n,
                       std::size_t dim) {
  PointSet out(n, dim);
  for (MachineId id = 0; id < cluster.num_machines(); ++id) {
    const auto& store = cluster.store(id);
    const auto idx = keys::kIdx.get(store);
    const auto data = keys::kPts.get(store);
    for (std::size_t local = 0; local < idx.size(); ++local) {
      std::copy_n(data.begin() + local * dim, dim, out[idx[local]].begin());
    }
  }
  return out;
}

}  // namespace mpte::mpc
