// The dispatched kernel table (mpte::simd).
//
// Every hot point kernel in the pipeline — FWHT butterflies, squared-L2 /
// norm / dot reductions, the dense GEMV and sparse CSR row products behind
// the JL transforms, and the lattice scans behind ShiftedGrid / BallGrids —
// is implemented once as a template over a 4-lane vector type `VecD`
// (simd/kernels-inl.hpp) and instantiated per backend (scalar, SSE2,
// AVX2). Call sites reach the active instantiation through simd::ops()
// (simd/dispatch.hpp).
//
// Determinism contract (docs/simd-kernels.md):
//  * One template defines every kernel; backends differ only in the VecD
//    type, whose operations are all exactly-rounded IEEE-754 double ops
//    (add/sub/mul, true floor, round-half-to-even). The op sequence —
//    including which elements meet which accumulator — is therefore
//    identical on every backend, so outputs are byte-identical across
//    scalar/SSE2/AVX2 and at any thread count.
//  * Reductions use sixteen fixed virtual accumulator lanes (four vectors
//    of four, independent so no backend serializes on one add chain):
//    element k of a (block-aligned) stream feeds vector k/4 mod 4, lane
//    k mod 4, and the merge order is pinned — vectors as
//    (v0 + v1) + (v2 + v3), then lanes as (l0 + l1) + (l2 + l3). The
//    scalar backend performs the same sixteen-lane scheme, so vector
//    width never changes a sum.
//  * Kernel TUs are compiled with -ffp-contract=off: no backend may fuse
//    a multiply-add the others perform as two rounded ops.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace mpte::simd {

/// Function-pointer table of one backend's kernel instantiations.
struct Ops {
  /// Backend name ("scalar", "sse2", "avx2") for logs/metrics labels.
  const char* name;

  /// In-place unnormalized Walsh–Hadamard butterflies over one row.
  /// n must be a power of two (callers validate).
  void (*fwht_row)(double* data, std::size_t n);

  /// data[i] *= s for i in [0, n).
  void (*scale)(double* data, std::size_t n, double s);

  /// Sum of (a[i] - b[i])^2 under the virtual-lane scheme.
  double (*l2sq)(const double* a, const double* b, std::size_t n);

  /// Dot product under the virtual-lane scheme.
  double (*dot)(const double* a, const double* b, std::size_t n);

  /// Dense row-major GEMV: out[r] = dot(m + r*cols, p) for r in [0, rows).
  void (*gemv)(const double* m, std::size_t rows, std::size_t cols,
               const double* p, double* out);

  /// One CSR row product: sum of vals[k] * x[cols[k]] for k in [0, nnz)
  /// under the virtual-lane scheme.
  double (*csr_row_dot)(const double* vals, const std::uint32_t* cols,
                        std::size_t nnz, const double* x);

  /// z[t] = floor((p[t] - shifts[t]) * inv_cell) for t in [0, n):
  /// the ShiftedGrid cell-coordinate kernel (elementwise, no reduction).
  void (*lattice_floor)(const double* p, const double* shifts, std::size_t n,
                        double inv_cell, double* z);

  /// BallGrids lattice scan with grids in the vector lanes: for grid u,
  /// the nearest lattice ball center is c_t = z_t * cell + s_{u,t} with
  /// z_t = round_even((p[t] - s_{u,t}) * inv_cell), and grid u covers p iff
  /// sum_t (p[t] - c_t)^2 <= radius_sq, the per-grid sum accumulated in
  /// dimension order exactly like the pre-SIMD scalar loop. `shifts_by_dim`
  /// is the transposed shift table, shifts_by_dim[t * num_grids + u].
  /// Returns the first covering grid index, or num_grids if none covers.
  std::size_t (*ball_first_cover)(const double* p, std::size_t dim,
                                  const double* shifts_by_dim,
                                  std::size_t num_grids, double cell,
                                  double inv_cell, double radius_sq);

  /// ball_first_cover over n points read with a stride: point i's `dim`
  /// coordinates start at points + i * stride, and out[i] receives its
  /// first covering grid index (num_grids if none covers). Each point runs
  /// ball_first_cover's per-lane op sequence, so out[i] equals the
  /// per-point result bit for bit. Needs num_grids < 2^32.
  void (*ball_first_cover_batch)(const double* points, std::size_t stride,
                                 std::size_t n, std::size_t dim,
                                 const double* shifts_by_dim,
                                 std::size_t num_grids, double cell,
                                 double inv_cell, double radius_sq,
                                 std::uint32_t* out);
};

/// The always-available scalar reference instantiation.
const Ops& scalar_ops();

#if defined(__x86_64__) || defined(__i386__)
#define MPTE_SIMD_X86 1
/// x86 vector instantiations; compiled only when the build enables them
/// (MPTE_SIMD=ON, the default). When compiled out these return nullptr.
const Ops* sse2_ops();
const Ops* avx2_ops();
#else
#define MPTE_SIMD_X86 0
#endif

/// Scalar round-to-nearest-even, matching VecD::round_even bit-for-bit.
/// Used by callers that re-derive a lattice coordinate the vector kernel
/// computed (e.g. the BallGrids ball-id hash).
inline double round_nearest_even(double x) { return std::nearbyint(x); }

}  // namespace mpte::simd
