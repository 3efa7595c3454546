// Shared kernel templates over a 4-lane VecD type. This header is included
// by exactly three TUs — kernels_scalar.cpp, kernels_sse2.cpp,
// kernels_avx2.cpp — each of which instantiates make_ops<V>() with its
// backend's vector type. The template is the determinism contract: because
// every backend runs this same code, with VecD operations that are all
// exactly-rounded IEEE-754 double ops, the three instantiations are
// byte-identical on every input (see simd/kernels.hpp and
// docs/simd-kernels.md). Those TUs are compiled with -ffp-contract=off so
// no backend fuses a multiply-add the others round twice.
//
// Reduction scheme: sixteen virtual accumulator lanes, laid out as four
// vectors of four — element k of a (block-aligned) stream feeds vector
// k/4 mod 4, lane k mod 4. Four independent accumulator vectors matter
// for throughput, not just width: a single accumulator serializes on
// floating-point add latency, which is exactly the ILP the pre-SIMD
// scalar code got for free from its four independent double chains.
// Merging is pinned: vectors combine as (v0 + v1) + (v2 + v3) (lanewise),
// then the surviving vector's lanes as (l0 + l1) + (l2 + l3). Tails
// shorter than a block are padded with +0.0 operands
// (load_partial/gather_partial) rather than handled by a differently-
// shaped scalar loop, so the merge tree never depends on n mod 16.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "simd/kernels.hpp"

namespace mpte::simd {

template <class V>
void fwht_row_impl(double* data, std::size_t n) {
  if (n < 4) {
    if (n == 2) {
      const double a = data[0];
      const double b = data[1];
      data[0] = a + b;
      data[1] = a - b;
    }
    return;
  }
  // Levels half = 1 and half = 2 fused into one in-register pass: each
  // 4-element block is loaded once, butterflied twice with lane shuffles,
  // and stored once. Same IEEE adds/subs as the generic level loop, at a
  // quarter of its memory traffic — without this the two sub-vector levels
  // run scalar and cap the whole transform (Amdahl) at ~2x.
  for (std::size_t i = 0; i < n; i += V::kLanes) {
    V::butterfly2(V::butterfly1(V::load(data + i))).store(data + i);
  }
  std::size_t half = V::kLanes;
  // Radix-4 passes: two consecutive levels per sweep. The intermediates
  // u = (a±b, c±d) are exactly what level `half` would have stored, and
  // the outputs u0±u2, u1±u3 are exactly what level `2*half` would then
  // have computed — same IEEE ops, same association, half the loads and
  // stores. Butterfly kernels here are store-throughput-bound, so the
  // traffic, not the adds, is what the fusion buys back.
  for (; (half << 1) < n; half <<= 2) {
    for (std::size_t base = 0; base < n; base += half << 2) {
      for (std::size_t i = base; i < base + half; i += V::kLanes) {
        const V a = V::load(data + i);
        const V b = V::load(data + i + half);
        const V c = V::load(data + i + 2 * half);
        const V d = V::load(data + i + 3 * half);
        const V u0 = a + b;
        const V u1 = a - b;
        const V u2 = c + d;
        const V u3 = c - d;
        (u0 + u2).store(data + i);
        (u1 + u3).store(data + i + half);
        (u0 - u2).store(data + i + 2 * half);
        (u1 - u3).store(data + i + 3 * half);
      }
    }
  }
  // One radix-2 level remains when log2(n) - 2 is odd.
  if (half < n) {
    for (std::size_t base = 0; base < n; base += half << 1) {
      for (std::size_t i = base; i < base + half; i += V::kLanes) {
        const V a = V::load(data + i);
        const V b = V::load(data + i + half);
        (a + b).store(data + i);
        (a - b).store(data + i + half);
      }
    }
  }
}

template <class V>
void scale_impl(double* data, std::size_t n, double s) {
  const V vs = V::broadcast(s);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    (V::load(data + i) * vs).store(data + i);
  }
  for (; i < n; ++i) data[i] *= s;
}

/// Pinned-order merge of one accumulator vector's four lanes.
template <class V>
double merge_lanes(const V& acc) {
  return (acc.lane(0) + acc.lane(1)) + (acc.lane(2) + acc.lane(3));
}

/// The four accumulator vectors of the sixteen-virtual-lane reduction.
/// Named members (not an array) so compilers keep each in a register
/// instead of spilling an indexed aggregate; add_tail routes a tail
/// sub-block to the right chain without indexing.
template <class V>
struct Acc4 {
  V v0 = V::zero();
  V v1 = V::zero();
  V v2 = V::zero();
  V v3 = V::zero();

  void add_tail(std::size_t j, const V& term) {
    if (j == 0) {
      v0 = v0 + term;
    } else if (j == 1) {
      v1 = v1 + term;
    } else if (j == 2) {
      v2 = v2 + term;
    } else {
      v3 = v3 + term;
    }
  }

  /// Pinned merge: vectors as (v0 + v1) + (v2 + v3), then lanes.
  double merge() const { return merge_lanes((v0 + v1) + (v2 + v3)); }
};

template <class V>
double l2sq_impl(const double* a, const double* b, std::size_t n) {
  constexpr std::size_t kSub = V::kLanes;
  constexpr std::size_t kBlock = 4 * kSub;
  Acc4<V> acc;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    const V d0 = V::load(a + i) - V::load(b + i);
    const V d1 = V::load(a + i + kSub) - V::load(b + i + kSub);
    const V d2 = V::load(a + i + 2 * kSub) - V::load(b + i + 2 * kSub);
    const V d3 = V::load(a + i + 3 * kSub) - V::load(b + i + 3 * kSub);
    acc.v0 = acc.v0 + d0 * d0;
    acc.v1 = acc.v1 + d1 * d1;
    acc.v2 = acc.v2 + d2 * d2;
    acc.v3 = acc.v3 + d3 * d3;
  }
  for (std::size_t j = 0; i < n; i += kSub, ++j) {
    const std::size_t m = std::min(kSub, n - i);
    const V d = V::load_partial(a + i, m) - V::load_partial(b + i, m);
    acc.add_tail(j, d * d);
  }
  return acc.merge();
}

template <class V>
double dot_impl(const double* a, const double* b, std::size_t n) {
  constexpr std::size_t kSub = V::kLanes;
  constexpr std::size_t kBlock = 4 * kSub;
  Acc4<V> acc;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    acc.v0 = acc.v0 + V::load(a + i) * V::load(b + i);
    acc.v1 = acc.v1 + V::load(a + i + kSub) * V::load(b + i + kSub);
    acc.v2 = acc.v2 + V::load(a + i + 2 * kSub) * V::load(b + i + 2 * kSub);
    acc.v3 = acc.v3 + V::load(a + i + 3 * kSub) * V::load(b + i + 3 * kSub);
  }
  for (std::size_t j = 0; i < n; i += kSub, ++j) {
    const std::size_t m = std::min(kSub, n - i);
    acc.add_tail(j, V::load_partial(a + i, m) * V::load_partial(b + i, m));
  }
  return acc.merge();
}

template <class V>
void gemv_impl(const double* m, std::size_t rows, std::size_t cols,
               const double* p, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = dot_impl<V>(m + r * cols, p, cols);
  }
}

template <class V>
double csr_row_dot_impl(const double* vals, const std::uint32_t* cols,
                        std::size_t nnz, const double* x) {
  constexpr std::size_t kSub = V::kLanes;
  constexpr std::size_t kBlock = 4 * kSub;
  Acc4<V> acc;
  std::size_t k = 0;
  for (; k + kBlock <= nnz; k += kBlock) {
    acc.v0 = acc.v0 + V::load(vals + k) * V::gather(x, cols + k);
    acc.v1 = acc.v1 + V::load(vals + k + kSub) * V::gather(x, cols + k + kSub);
    acc.v2 = acc.v2 +
             V::load(vals + k + 2 * kSub) * V::gather(x, cols + k + 2 * kSub);
    acc.v3 = acc.v3 +
             V::load(vals + k + 3 * kSub) * V::gather(x, cols + k + 3 * kSub);
  }
  for (std::size_t j = 0; k < nnz; k += kSub, ++j) {
    const std::size_t m = std::min(kSub, nnz - k);
    acc.add_tail(j,
                 V::load_partial(vals + k, m) * V::gather_partial(x, cols + k, m));
  }
  return acc.merge();
}

template <class V>
void lattice_floor_impl(const double* p, const double* shifts, std::size_t n,
                        double inv_cell, double* z) {
  const V vinv = V::broadcast(inv_cell);
  std::size_t t = 0;
  for (; t + V::kLanes <= n; t += V::kLanes) {
    V::floor((V::load(p + t) - V::load(shifts + t)) * vinv).store(z + t);
  }
  for (; t < n; ++t) {
    z[t] = std::floor((p[t] - shifts[t]) * inv_cell);
  }
}

/// Squared distances from p to the nearest ball center of grids
/// u0..u0+3 (one grid per lane), accumulated in dimension order — the
/// order the pre-SIMD per-grid loop used. `load` reads one dimension's row
/// of the block (full or zero-padded partial). With K > 0 the dimension is
/// K and `held` holds p's K broadcasts; with K = 0 it is `dim` and each
/// coordinate is broadcast where it is used.
template <class V, std::size_t K, class Load>
V ball_block_dist(const V* held, const double* p, std::size_t dim,
                  const double* shifts_by_dim, std::size_t num_grids,
                  std::size_t u0, const V& vcell, const V& vinv, Load load) {
  V dist = V::zero();
  const std::size_t d = K > 0 ? K : dim;
  for (std::size_t t = 0; t < d; ++t) {
    const V s = load(shifts_by_dim + t * num_grids + u0);
    const V pt = [&] {
      if constexpr (K > 0) {
        return held[t];
      } else {
        return V::broadcast(p[t]);
      }
    }();
    const V z = V::round_even((pt - s) * vinv);
    const V diff = pt - (z * vcell + s);
    dist = dist + diff * diff;
  }
  return dist;
}

/// The first grid covering p, or num_grids (see Ops::ball_first_cover).
/// The pre-SIMD per-grid loop broke out once a partial sum exceeded
/// radius_sq; the summands are squares, so the full sum exceeds iff some
/// prefix does and the cover decision is unchanged. "Covers" is
/// !(dist > r^2) rather than dist <= r^2 so that a NaN coordinate keeps
/// that loop's behavior (its prefix sums never exceeded the radius, so the
/// first grid claimed the point).
template <class V, std::size_t K>
std::size_t ball_scan(const double* p, std::size_t dim,
                      const double* shifts_by_dim, std::size_t num_grids,
                      const V& vcell, const V& vinv, double radius_sq) {
  V held[K > 0 ? K : 1]{};
  if constexpr (K > 0) {
    for (std::size_t t = 0; t < K; ++t) held[t] = V::broadcast(p[t]);
  }
  const auto full = [](const double* row) { return V::load(row); };
  std::size_t u0 = 0;
  for (; u0 + V::kLanes <= num_grids; u0 += V::kLanes) {
    const std::size_t l =
        ball_block_dist<V, K>(held, p, dim, shifts_by_dim, num_grids, u0,
                              vcell, vinv, full)
            .first_not_above(radius_sq);
    if (l < V::kLanes) return u0 + l;
  }
  const std::size_t lanes = num_grids - u0;
  if (lanes > 0) {
    // Padded lanes see +0.0 shifts; a hit there is past the last grid.
    const auto partial = [lanes](const double* row) {
      return V::load_partial(row, lanes);
    };
    const std::size_t l =
        ball_block_dist<V, K>(held, p, dim, shifts_by_dim, num_grids, u0,
                              vcell, vinv, partial)
            .first_not_above(radius_sq);
    if (l < lanes) return u0 + l;
  }
  return num_grids;
}

template <class V>
std::size_t ball_first_cover_impl(const double* p, std::size_t dim,
                                  const double* shifts_by_dim,
                                  std::size_t num_grids, double cell,
                                  double inv_cell, double radius_sq) {
  return ball_scan<V, 0>(p, dim, shifts_by_dim, num_grids,
                         V::broadcast(cell), V::broadcast(inv_cell),
                         radius_sq);
}

template <class V, std::size_t K>
void ball_first_cover_rows(const double* points, std::size_t stride,
                           std::size_t n, std::size_t dim,
                           const double* shifts_by_dim, std::size_t num_grids,
                           double cell, double inv_cell, double radius_sq,
                           std::uint32_t* out) {
  const V vcell = V::broadcast(cell);
  const V vinv = V::broadcast(inv_cell);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(
        ball_scan<V, K>(points + i * stride, dim, shifts_by_dim, num_grids,
                        vcell, vinv, radius_sq));
  }
}

template <class V>
void ball_first_cover_batch_impl(const double* points, std::size_t stride,
                                 std::size_t n, std::size_t dim,
                                 const double* shifts_by_dim,
                                 std::size_t num_grids, double cell,
                                 double inv_cell, double radius_sq,
                                 std::uint32_t* out) {
  // Bucket dims 1-3 (the auto bucket count keeps k <= 3) get a
  // compile-time dimension, so each point's broadcasts are made once and
  // stay in registers across its grid blocks.
  switch (dim) {
    case 1:
      return ball_first_cover_rows<V, 1>(points, stride, n, dim,
                                         shifts_by_dim, num_grids, cell,
                                         inv_cell, radius_sq, out);
    case 2:
      return ball_first_cover_rows<V, 2>(points, stride, n, dim,
                                         shifts_by_dim, num_grids, cell,
                                         inv_cell, radius_sq, out);
    case 3:
      return ball_first_cover_rows<V, 3>(points, stride, n, dim,
                                         shifts_by_dim, num_grids, cell,
                                         inv_cell, radius_sq, out);
    default:
      return ball_first_cover_rows<V, 0>(points, stride, n, dim,
                                         shifts_by_dim, num_grids, cell,
                                         inv_cell, radius_sq, out);
  }
}

/// Backend V's kernel table. With kRounding = false the entries built on
/// floor and round (lattice_floor and the two ball scans) stay null and
/// V's versions are never instantiated: a backend without packed
/// rounding, whose versions lose to scalar, fills them from scalar_ops().
template <class V, bool kRounding = true>
constexpr Ops make_ops(const char* name) {
  Ops ops{
      name,
      &fwht_row_impl<V>,
      &scale_impl<V>,
      &l2sq_impl<V>,
      &dot_impl<V>,
      &gemv_impl<V>,
      &csr_row_dot_impl<V>,
      nullptr,
      nullptr,
      nullptr,
  };
  if constexpr (kRounding) {
    ops.lattice_floor = &lattice_floor_impl<V>;
    ops.ball_first_cover = &ball_first_cover_impl<V>;
    ops.ball_first_cover_batch = &ball_first_cover_batch_impl<V>;
  }
  return ops;
}

}  // namespace mpte::simd
