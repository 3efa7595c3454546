#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace mpte {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsDeterministicAndKeyed) {
  const Rng parent(7);
  Rng c1 = parent.split(1);
  Rng c1_again = parent.split(1);
  Rng c2 = parent.split(2);
  EXPECT_EQ(c1(), c1_again());
  EXPECT_NE(c1(), c2());
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng a(9);
  Rng b(9);
  (void)a.split(5);
  EXPECT_EQ(a(), b());
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, UniformU64CoversSmallRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.uniform_u64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(19);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.1);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(23);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Mix64, InjectiveOnSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(HashCombine, NoObviousCollisions) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 100; ++a) {
    for (std::uint64_t b = 0; b < 100; ++b) {
      seen.insert(hash_combine(a, b));
    }
  }
  EXPECT_EQ(seen.size(), 10000u);
}

// Chi-squared sanity on byte uniformity.
TEST(Rng, BytesRoughlyUniform) {
  Rng rng(31);
  std::vector<int> counts(256, 0);
  const int draws = 8192;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t v = rng();
    for (int b = 0; b < 8; ++b) ++counts[(v >> (8 * b)) & 0xff];
  }
  const double expected = draws * 8 / 256.0;
  double chi2 = 0.0;
  for (const int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // 255 dof; mean 255, stddev ~22.6. Anything below 400 is unremarkable.
  EXPECT_LT(chi2, 400.0);
}

}  // namespace
}  // namespace mpte
