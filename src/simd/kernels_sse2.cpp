// Compiled only on x86 builds with MPTE_SIMD=ON (see src/CMakeLists.txt).
#include "simd/kernels-inl.hpp"
#include "simd/vecd_sse2.hpp"

namespace mpte::simd {

const Ops* sse2_ops() {
  // SSE2 has no packed floor or round, so its lattice floor and ball
  // scans went lane by lane through libm and ran at 0.83-0.98x and 0.98x
  // scalar (EXPERIMENTS.md E21, E17): those three entries dispatch to the
  // scalar instantiation, byte-identical by construction.
  static const Ops kOps = [] {
    Ops ops = make_ops<VecSse2, /*kRounding=*/false>("sse2");
    ops.lattice_floor = scalar_ops().lattice_floor;
    ops.ball_first_cover = scalar_ops().ball_first_cover;
    ops.ball_first_cover_batch = scalar_ops().ball_first_cover_batch;
    return ops;
  }();
  return &kOps;
}

}  // namespace mpte::simd
