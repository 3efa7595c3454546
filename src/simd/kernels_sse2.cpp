// Compiled only on x86 builds with MPTE_SIMD=ON (see src/CMakeLists.txt).
#include "simd/kernels-inl.hpp"
#include "simd/vecd_sse2.hpp"

namespace mpte::simd {

const Ops* sse2_ops() {
  // SSE2 has no packed round, so its ball scans rounded lane by lane
  // through libm and ran at 0.98x scalar (EXPERIMENTS.md E17): both ball
  // entries dispatch to the scalar instantiation, byte-identical by
  // construction.
  static const Ops kOps = [] {
    Ops ops = make_ops<VecSse2, /*kBallScans=*/false>("sse2");
    ops.ball_first_cover = scalar_ops().ball_first_cover;
    ops.ball_first_cover_batch = scalar_ops().ball_first_cover_batch;
    return ops;
  }();
  return &kOps;
}

}  // namespace mpte::simd
