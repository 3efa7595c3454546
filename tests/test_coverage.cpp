#include "partition/coverage.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"
#include "common/status.hpp"
#include <string>

namespace mpte {
namespace {

TEST(Coverage, RecommendedGridsValidation) {
  EXPECT_THROW(recommended_num_grids(0, 10, 1, 1, 0.1), MpteError);
  EXPECT_THROW(recommended_num_grids(2, 10, 1, 1, 0.0), MpteError);
  EXPECT_THROW(recommended_num_grids(2, 10, 1, 1, 1.0), MpteError);
}

TEST(Coverage, OneDimensionalCount) {
  // p_1 = 1/2; need (1/2)^U * events <= delta.
  const std::size_t u = recommended_num_grids(1, 1, 1, 1, 0.5);
  EXPECT_EQ(u, 1u);
  const std::size_t u2 = recommended_num_grids(1, 1, 1, 1, 1.0 / 1024.0);
  EXPECT_EQ(u2, 10u);
}

TEST(Coverage, GrowsWithEvents) {
  const std::size_t base = recommended_num_grids(2, 100, 2, 10, 1e-6);
  EXPECT_GT(recommended_num_grids(2, 10000, 2, 10, 1e-6), base);
  EXPECT_GT(recommended_num_grids(2, 100, 8, 10, 1e-6), base);
  EXPECT_GT(recommended_num_grids(2, 100, 2, 40, 1e-6), base);
  EXPECT_GT(recommended_num_grids(2, 100, 2, 10, 1e-12), base);
}

TEST(Coverage, GrowsExponentiallyWithBucketDim) {
  // U ~ 1/p_k and p_k shrinks like V_k/4^k.
  const std::size_t u2 = recommended_num_grids(2, 100, 1, 10, 1e-6);
  const std::size_t u4 = recommended_num_grids(4, 100, 1, 10, 1e-6);
  const std::size_t u6 = recommended_num_grids(6, 100, 1, 10, 1e-6);
  EXPECT_GT(u4, 3 * u2);
  EXPECT_GT(u6, 3 * u4);
}

TEST(Coverage, UnionBoundGuarantee) {
  // With U = recommended, the failure probability formula stays <= delta.
  for (const std::size_t k : {1u, 2u, 3u, 4u}) {
    const double delta = 1e-4;
    const std::size_t n = 500, r = 4, levels = 20;
    const std::size_t u = recommended_num_grids(k, n, r, levels, delta);
    const double miss_one_event =
        coverage_failure_probability(k, 1, u);  // single point
    EXPECT_LE(miss_one_event * static_cast<double>(n * r * levels),
              delta * 1.001)
        << "k=" << k;
  }
}

TEST(Coverage, FailureProbabilityMonotoneInGrids) {
  double prev = 1.0;
  for (std::size_t u = 1; u <= 512; u *= 2) {
    const double p = coverage_failure_probability(3, 100, u);
    EXPECT_LE(p, prev);
    prev = p;
  }
  // (1 - p_3)^512 * 100 with p_3 ~ 0.065 is astronomically small.
  EXPECT_LT(prev, 1e-10);
}

TEST(Coverage, FailureProbabilityCappedAtOne) {
  EXPECT_EQ(coverage_failure_probability(8, 1 << 20, 1), 1.0);
}

TEST(Coverage, Lemma7BoundSameGrowthFamilyAsExact) {
  // The asymptotic 2^{k log k} form should stay within a few orders of
  // magnitude of the exact union-bound count over small k.
  for (const std::size_t k : {2u, 3u, 4u}) {
    const double lemma = lemma7_grid_bound(k, 4, 20, 1e-6);
    const auto exact =
        static_cast<double>(recommended_num_grids(k, 1000, 4, 20, 1e-6));
    EXPECT_GT(lemma * 1e3, exact) << "k=" << k;
    EXPECT_LT(lemma, exact * 1e3) << "k=" << k;
  }
}

TEST(Coverage, GridSetSizeCheck) {
  EXPECT_TRUE(check_grid_set_size(3, 461).ok());
  EXPECT_TRUE(check_grid_set_size(8, 368184).ok());
  // The shift table: U * k doubles, at most 1 GiB.
  const std::size_t max_k3 = kMaxShiftTableBytes / sizeof(double) / 3;
  EXPECT_TRUE(check_grid_set_size(3, max_k3).ok());
  const Status over = check_grid_set_size(3, max_k3 + 1);
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.message().find("k = 3 "), std::string::npos);
  EXPECT_NE(over.message().find("U = " + std::to_string(max_k3 + 1)),
            std::string::npos);
  // The 32-bit grid index.
  EXPECT_EQ(check_grid_set_size(1, kMaxGridsPerSet + 1).code(),
            StatusCode::kInvalidArgument);
  // What recommended_num_grids asks for pure ball partitioning at d = 12
  // and at d = 16 (where it saturates toward 1e15).
  for (const std::size_t k : {12u, 16u}) {
    const std::size_t u = recommended_num_grids(k, 500, 1, 20, 1e-6);
    EXPECT_EQ(check_grid_set_size(k, u).code(), StatusCode::kInvalidArgument)
        << "k=" << k << " U=" << u;
  }
}

}  // namespace
}  // namespace mpte
