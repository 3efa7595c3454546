#include "apps/min_cost_flow.hpp"

#include <limits>
#include <queue>

#include "common/status.hpp"

namespace mpte {

MinCostFlow::MinCostFlow(std::size_t num_nodes) : graph_(num_nodes) {}

void MinCostFlow::add_edge(std::size_t u, std::size_t v,
                           std::int64_t capacity, double cost) {
  if (u >= graph_.size() || v >= graph_.size()) {
    throw MpteError("MinCostFlow::add_edge: node out of range");
  }
  if (cost < 0.0) {
    throw MpteError("MinCostFlow::add_edge: negative cost");
  }
  graph_[u].push_back(Arc{v, graph_[v].size(), capacity, cost});
  graph_[v].push_back(Arc{u, graph_[u].size() - 1, 0, -cost});
}

MinCostFlow::FlowResult MinCostFlow::solve(std::size_t source,
                                           std::size_t sink,
                                           std::int64_t max_flow) {
  const std::size_t n = graph_.size();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> potential(n, 0.0);  // costs nonnegative: start at 0
  FlowResult result;

  while (result.flow < max_flow) {
    // Dijkstra on reduced costs.
    std::vector<double> dist(n, kInf);
    std::vector<std::size_t> prev_node(n, n);
    std::vector<std::size_t> prev_arc(n, 0);
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    dist[source] = 0.0;
    queue.emplace(0.0, source);
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d > dist[u]) continue;
      for (std::size_t a = 0; a < graph_[u].size(); ++a) {
        const Arc& arc = graph_[u][a];
        if (arc.capacity <= 0) continue;
        const double reduced =
            arc.cost + potential[u] - potential[arc.to];
        if (dist[u] + reduced < dist[arc.to] - 1e-15) {
          dist[arc.to] = dist[u] + reduced;
          prev_node[arc.to] = u;
          prev_arc[arc.to] = a;
          queue.emplace(dist[arc.to], arc.to);
        }
      }
    }
    if (dist[sink] == kInf) break;  // no augmenting path

    for (std::size_t v = 0; v < n; ++v) {
      if (dist[v] < kInf) potential[v] += dist[v];
    }

    // Bottleneck along the path.
    std::int64_t push = max_flow - result.flow;
    for (std::size_t v = sink; v != source; v = prev_node[v]) {
      push = std::min(push, graph_[prev_node[v]][prev_arc[v]].capacity);
    }
    for (std::size_t v = sink; v != source; v = prev_node[v]) {
      Arc& arc = graph_[prev_node[v]][prev_arc[v]];
      arc.capacity -= push;
      graph_[v][arc.rev].capacity += push;
      result.cost += static_cast<double>(push) * arc.cost;
    }
    result.flow += push;
  }
  return result;
}

}  // namespace mpte
