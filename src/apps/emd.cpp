#include "apps/emd.hpp"

#include <cmath>

#include "apps/min_cost_flow.hpp"
#include "common/status.hpp"

namespace mpte {

double exact_emd(const PointSet& a, const PointSet& b) {
  if (a.size() != b.size()) {
    throw MpteError("exact_emd: point sets must have equal size");
  }
  if (a.dim() != b.dim()) {
    throw MpteError("exact_emd: dimension mismatch");
  }
  const std::size_t n = a.size();
  if (n == 0) return 0.0;

  // Nodes: source, n left, n right, sink.
  const std::size_t source = 0;
  const std::size_t sink = 2 * n + 1;
  MinCostFlow flow(2 * n + 2);
  for (std::size_t i = 0; i < n; ++i) {
    flow.add_edge(source, 1 + i, 1, 0.0);
    flow.add_edge(1 + n + i, sink, 1, 0.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      flow.add_edge(1 + i, 1 + n + j, 1, l2_distance(a[i], b[j]));
    }
  }
  const auto result = flow.solve(source, sink, static_cast<std::int64_t>(n));
  if (result.flow != static_cast<std::int64_t>(n)) {
    throw MpteError("exact_emd: matching incomplete");
  }
  return result.cost;
}

double tree_emd(const Hst& tree, const std::vector<int>& side) {
  if (side.size() != tree.num_points()) {
    throw MpteError("tree_emd: side vector size mismatch");
  }
  // Imbalance of each subtree, bottom-up; every edge carries |imbalance|.
  std::vector<std::int64_t> imbalance(tree.num_nodes(), 0);
  double total = 0.0;
  for (std::size_t i = tree.num_nodes(); i-- > 1;) {
    const HstNode& node = tree.node(i);
    if (node.point >= 0) {
      imbalance[i] += side[static_cast<std::size_t>(node.point)];
    }
    total += node.edge_weight *
             static_cast<double>(std::llabs(imbalance[i]));
    imbalance[static_cast<std::size_t>(node.parent)] += imbalance[i];
  }
  if (imbalance[0] != 0) {
    throw MpteError("tree_emd: sides do not balance (sum != 0)");
  }
  return total;
}

double tree_emd_split(const Hst& tree, std::size_t a_count) {
  std::vector<int> side(tree.num_points());
  for (std::size_t i = 0; i < side.size(); ++i) {
    side[i] = i < a_count ? 1 : -1;
  }
  return tree_emd(tree, side);
}

}  // namespace mpte
