// The block layout of a distributed point set: machine i holds points
// [i·⌈n/m⌉, (i+1)·⌈n/m⌉) ∩ [0, n) in ascending order, their indexes under
// "emb/idx" and their coordinates, row-major, under "emb/pts".
// scatter_points writes it from the host, mpc_fjlt leaves its output in it,
// and the embedding stages (core/mpc_stages) rewrite it in place.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "geometry/point_set.hpp"
#include "mpc/channel.hpp"
#include "mpc/cluster.hpp"

namespace mpte::mpc {

namespace keys {
inline const Key<std::uint64_t> kIdx{"emb/idx"};
inline const Key<double> kPts{"emb/pts"};
}  // namespace keys

/// The block split of n points over m machines.
struct PointBlocks {
  std::size_t n = 0;
  std::size_t block = 1;  // ⌈n / m⌉

  PointBlocks(std::size_t n, std::size_t m);

  MachineId owner(std::uint64_t point) const {
    return static_cast<MachineId>(point / block);
  }
  /// Machine `id` holds points [begin(id), end(id)).
  std::size_t begin(MachineId id) const { return std::min(n, id * block); }
  std::size_t end(MachineId id) const {
    return std::min(n, begin(id) + block);
  }
};

/// Host-side input loading; suppressed while the cluster fast-forwards a
/// restored run (the restored stores already hold the write).
void scatter_points(Cluster& cluster, const PointSet& points);

/// Host-side readout of the n resident points, in index order.
PointSet gather_points(const Cluster& cluster, std::size_t n,
                       std::size_t dim);

}  // namespace mpte::mpc
