#include "apps/union_find.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace mpte {
namespace {

/// Size of x's set among elements [0, n), counted through find().
std::size_t set_size(UnionFind& uf, std::size_t n, std::size_t x) {
  std::size_t size = 0;
  for (std::size_t i = 0; i < n; ++i) size += uf.find(i) == uf.find(x);
  return size;
}

TEST(UnionFind, InitiallyDisjoint) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.find(i), i);
    EXPECT_EQ(set_size(uf, 5, i), 1u);
  }
  EXPECT_NE(uf.find(0), uf.find(1));
}

TEST(UnionFind, UniteMergesAndCounts) {
  UnionFind uf(6);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_TRUE(uf.unite(0, 2));
  EXPECT_FALSE(uf.unite(1, 3));  // already connected
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_EQ(set_size(uf, 6, 3), 4u);
  EXPECT_EQ(uf.find(1), uf.find(2));
  EXPECT_NE(uf.find(0), uf.find(4));
}

TEST(UnionFind, TransitivityStress) {
  const std::size_t n = 1000;
  UnionFind uf(n);
  // Chain unions: everything ends connected.
  for (std::size_t i = 1; i < n; ++i) uf.unite(i - 1, i);
  EXPECT_EQ(uf.num_sets(), 1u);
  EXPECT_EQ(set_size(uf, n, 0), n);
  Rng rng(1);
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(uf.find(rng.uniform_u64(n)), uf.find(rng.uniform_u64(n)));
  }
}

TEST(UnionFind, RandomUnionsMatchNaive) {
  const std::size_t n = 64;
  UnionFind uf(n);
  std::vector<std::size_t> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = i;
  Rng rng(7);
  for (int t = 0; t < 100; ++t) {
    const std::size_t a = rng.uniform_u64(n);
    const std::size_t b = rng.uniform_u64(n);
    uf.unite(a, b);
    // Naive relabel.
    const std::size_t from = label[a], to = label[b];
    if (from != to) {
      for (auto& l : label) {
        if (l == from) l = to;
      }
    }
    // Spot-check consistency.
    for (int s = 0; s < 10; ++s) {
      const std::size_t x = rng.uniform_u64(n);
      const std::size_t y = rng.uniform_u64(n);
      EXPECT_EQ(uf.find(x) == uf.find(y), label[x] == label[y]);
    }
  }
}

}  // namespace
}  // namespace mpte
