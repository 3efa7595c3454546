// Earth-Mover distance: exact min-cost-flow baseline and the
// tree-embedding approximation (Corollary 1.3).
//
// For equal-size point multisets A and B, EMD is the min-cost perfect
// matching under Euclidean costs. On a tree embedding of A ∪ B it
// collapses to a closed form: route all mass along tree paths; every edge
// carries exactly |#A below − #B below| units, so
//   EMD_T = sum_e weight(e) * |imbalance_below(e)|,
// computable in one bottom-up sweep. Domination gives EMD_T >= EMD, and
// expected distortion bounds the ratio — the E9 bench measures it.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/point_set.hpp"
#include "tree/hst.hpp"

namespace mpte {

/// Exact EMD between equal-size point sets (min-cost perfect matching via
/// successive shortest paths). O(n^3 log n)-ish; bench-scale only.
double exact_emd(const PointSet& a, const PointSet& b);

/// Tree EMD on an embedding of the concatenated set A ∪ B: `side[i]` is
/// +1 for points of A and -1 for points of B (sum must be 0). One O(nodes)
/// sweep.
double tree_emd(const Hst& tree, const std::vector<int>& side);

/// Convenience: embeds nothing — given a tree over the concatenation
/// [a..., b...] (a.size() == b.size()), computes tree_emd with the
/// canonical sides.
double tree_emd_split(const Hst& tree, std::size_t a_count);

}  // namespace mpte
