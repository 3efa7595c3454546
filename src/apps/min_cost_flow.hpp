// Minimum-cost maximum-flow — the exact-EMD substrate.
//
// Earth-Mover distance between equal-mass point multisets is an assignment
// problem: a complete bipartite min-cost matching. The paper compares its
// tree-based EMD against the true value, so we need an exact solver: this
// is the classic successive-shortest-augmenting-path algorithm with
// Johnson potentials (Dijkstra per augmentation), exact for nonnegative
// reduced costs and fast enough for bench-scale instances (hundreds of
// points per side).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpte {

/// Min-cost max-flow on a directed graph with per-edge capacity and cost.
class MinCostFlow {
 public:
  explicit MinCostFlow(std::size_t num_nodes);

  /// Adds a directed edge u -> v. Cost must be >= 0 in the initial graph
  /// (reduced costs stay nonnegative thereafter).
  void add_edge(std::size_t u, std::size_t v, std::int64_t capacity,
                       double cost);

  /// Result of a run: total flow pushed and its total cost.
  struct FlowResult {
    std::int64_t flow = 0;
    double cost = 0.0;
  };

  /// Pushes up to max_flow units from source to sink along successive
  /// shortest paths; returns the flow achieved and its cost.
  FlowResult solve(std::size_t source, std::size_t sink,
                   std::int64_t max_flow);

 private:
  struct Arc {
    std::size_t to;
    std::size_t rev;  // index of the reverse arc in graph_[to]
    std::int64_t capacity;
    double cost;
  };
  std::vector<std::vector<Arc>> graph_;
};

}  // namespace mpte
