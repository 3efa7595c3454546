// Disjoint-set union — substrate for MST construction and clustering.
#pragma once

#include <cstddef>
#include <vector>

namespace mpte {

/// Union–find with path halving and union by size.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  /// Representative of x's set.
  std::size_t find(std::size_t x);

  /// Merges the sets of a and b; returns false if already merged.
  bool unite(std::size_t a, std::size_t b);

  /// Number of disjoint sets remaining.
  std::size_t num_sets() const { return sets_; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t sets_;
};

}  // namespace mpte
