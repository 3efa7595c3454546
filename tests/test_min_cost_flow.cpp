#include "apps/min_cost_flow.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace mpte {
namespace {

TEST(MinCostFlow, SingleEdge) {
  MinCostFlow mcf(2);
  mcf.add_edge(0, 1, 5, 2.0);
  const auto result = mcf.solve(0, 1, 10);
  EXPECT_EQ(result.flow, 5);
  EXPECT_DOUBLE_EQ(result.cost, 10.0);
}

TEST(MinCostFlow, PrefersCheaperPath) {
  // Two parallel paths: cost 1 (cap 3) and cost 5 (cap 10).
  MinCostFlow mcf(4);
  mcf.add_edge(0, 1, 3, 0.5);
  mcf.add_edge(1, 3, 3, 0.5);
  mcf.add_edge(0, 2, 10, 2.5);
  mcf.add_edge(2, 3, 10, 2.5);
  const auto result = mcf.solve(0, 3, 5);
  EXPECT_EQ(result.flow, 5);
  EXPECT_DOUBLE_EQ(result.cost, 3 * 1.0 + 2 * 5.0);
}

TEST(MinCostFlow, RespectsMaxFlowCap) {
  MinCostFlow mcf(2);
  mcf.add_edge(0, 1, 100, 1.0);
  const auto result = mcf.solve(0, 1, 7);
  EXPECT_EQ(result.flow, 7);
  EXPECT_DOUBLE_EQ(result.cost, 7.0);
}

TEST(MinCostFlow, DisconnectedReturnsZero) {
  MinCostFlow mcf(3);
  mcf.add_edge(0, 1, 1, 1.0);
  const auto result = mcf.solve(0, 2, 5);
  EXPECT_EQ(result.flow, 0);
  EXPECT_EQ(result.cost, 0.0);
}

TEST(MinCostFlow, NegativeCostRejected) {
  MinCostFlow mcf(2);
  EXPECT_THROW(mcf.add_edge(0, 1, 1, -1.0), MpteError);
}

TEST(MinCostFlow, OutOfRangeNodeRejected) {
  MinCostFlow mcf(2);
  EXPECT_THROW(mcf.add_edge(0, 5, 1, 1.0), MpteError);
}

TEST(MinCostFlow, UsesResidualReversal) {
  // Classic case where the optimum needs to reroute earlier flow:
  //   0 -> 1 (cap 1, cost 1), 0 -> 2 (cap 1, cost 2),
  //   1 -> 2 (cap 1, cost 0), 1 -> 3 (cap 1, cost 2), 2 -> 3 (cap 1, cost 1)
  // Max flow 2 with min cost: 0-1-2-3 (2) + 0-2? cap used... optimal cost 6.
  MinCostFlow mcf(4);
  mcf.add_edge(0, 1, 1, 1.0);
  mcf.add_edge(0, 2, 1, 2.0);
  mcf.add_edge(1, 2, 1, 0.0);
  mcf.add_edge(1, 3, 1, 2.0);
  mcf.add_edge(2, 3, 1, 1.0);
  const auto result = mcf.solve(0, 3, 2);
  EXPECT_EQ(result.flow, 2);
  EXPECT_DOUBLE_EQ(result.cost, 6.0);
}

TEST(MinCostFlow, MatchesBruteForceAssignment) {
  // Random 5x5 assignment; compare against exhaustive permutations.
  Rng rng(13);
  const std::size_t n = 5;
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = rng.uniform(0.0, 10.0);
  }

  MinCostFlow mcf(2 * n + 2);
  const std::size_t source = 0, sink = 2 * n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    mcf.add_edge(source, 1 + i, 1, 0.0);
    mcf.add_edge(1 + n + i, sink, 1, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      mcf.add_edge(1 + i, 1 + n + j, 1, cost[i][j]);
    }
  }
  const auto result = mcf.solve(source, sink, n);
  ASSERT_EQ(result.flow, static_cast<std::int64_t>(n));

  std::vector<std::size_t> perm{0, 1, 2, 3, 4};
  double best = 1e18;
  do {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += cost[i][perm[i]];
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_NEAR(result.cost, best, 1e-9);
}

}  // namespace
}  // namespace mpte
