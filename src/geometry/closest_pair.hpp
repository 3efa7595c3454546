// Exact closest-pair distance without the all-pairs scan.
//
// recommended_delta needs only the smallest interpoint distance d_min
// (Theorems 1–2 take the input in [Delta]^d, and Delta is chosen from
// width / d_min). The search below returns exactly the value the
// all-pairs scan pairwise_distance_extremes(points).min returns — the same
// double, bit for bit, on every SIMD backend and thread count — because it
// evaluates every pair it cannot rule out with the same simd::ops().l2sq
// kernel, and rules a pair out only with a certified lower bound.
//
// Method: sort the points along the widest bounding-box axis; take a first
// bound from the pairs adjacent in that order; then sweep every point
// forward along the axis. A pair is skipped when its squared axis gap
// already exceeds the running best (then so does every later partner of
// the same point, and the sweep stops), or when the gap plus the squared
// gaps on the next few widest axes exceeds the best by more than a
// relative slack that covers the rounding of both sums. Anchors are split
// into many chunks that the par pool claims dynamically; each chunk sweeps
// with its own best, starting from the smallest best published so far, and
// publishes its own when done.
//
// Cost: O(n log n + n·d), plus O(1) per pair inside the axis window and
// one l2sq per pair that survives the bounds. On clustered or
// low-dimensional inputs few pairs survive; on inputs whose closest pair
// is large relative to the spread along every axis (e.g. uniform points in
// high dimension) every pair survives, and the worst case is the scan's
// O(n²·d), spread evenly over the threads.
#pragma once

#include "geometry/point_set.hpp"

namespace mpte {

/// Smallest Euclidean distance between two of the points (exact, and
/// bit-equal to pairwise_distance_extremes(points).min, which is its test
/// oracle). Returns 0 for fewer than two points, for dimension 0, and when
/// two points coincide.
double closest_pair_distance(const PointSet& points);

}  // namespace mpte
