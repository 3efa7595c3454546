#include "apps/union_find.hpp"

#include <numeric>

namespace mpte {

UnionFind::UnionFind(std::size_t n) : parent_(n), size_(n, 1), sets_(n) {
  std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

std::size_t UnionFind::find(std::size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  if (size_[a] < size_[b]) std::swap(a, b);
  parent_[b] = a;
  size_[a] += size_[b];
  --sets_;
  return true;
}

}  // namespace mpte
