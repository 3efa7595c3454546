// SSE2 implementation of the VecD contract: four virtual lanes as two
// 128-bit registers. SSE2 is the x86-64 baseline, so this backend exists
// on every x86-64 host; the arithmetic (add/sub/mul) runs two lanes per
// instruction. SSE2 has no packed floor or round, so the kernels built
// on them — the lattice floor and the ball scans, the only users of
// floor, round_even and first_not_above — dispatch to the scalar backend
// on SSE2 (kernels_sse2.cpp), and this type omits those three ops.
#pragma once

#include <emmintrin.h>

#include <cstddef>
#include <cstdint>

namespace mpte::simd {

struct VecSse2 {
  static constexpr std::size_t kLanes = 4;

  __m128d lo;  // lanes 0, 1
  __m128d hi;  // lanes 2, 3

  static VecSse2 zero() {
    return VecSse2{_mm_setzero_pd(), _mm_setzero_pd()};
  }

  static VecSse2 broadcast(double x) {
    return VecSse2{_mm_set1_pd(x), _mm_set1_pd(x)};
  }

  static VecSse2 load(const double* p) {
    return VecSse2{_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }

  static VecSse2 load_partial(const double* p, std::size_t n) {
    double tmp[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t l = 0; l < n; ++l) tmp[l] = p[l];
    return load(tmp);
  }

  static VecSse2 gather(const double* base, const std::uint32_t* idx) {
    return VecSse2{_mm_set_pd(base[idx[1]], base[idx[0]]),
                   _mm_set_pd(base[idx[3]], base[idx[2]])};
  }

  static VecSse2 gather_partial(const double* base, const std::uint32_t* idx,
                                std::size_t n) {
    double tmp[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t l = 0; l < n; ++l) tmp[l] = base[idx[l]];
    return load(tmp);
  }

  void store(double* p) const {
    _mm_storeu_pd(p, lo);
    _mm_storeu_pd(p + 2, hi);
  }

  double lane(std::size_t l) const {
    double tmp[kLanes];
    store(tmp);
    return tmp[l];
  }

  friend VecSse2 operator+(VecSse2 a, VecSse2 b) {
    return VecSse2{_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  friend VecSse2 operator-(VecSse2 a, VecSse2 b) {
    return VecSse2{_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
  }
  friend VecSse2 operator*(VecSse2 a, VecSse2 b) {
    return VecSse2{_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }

  /// FWHT level half=1: each 128-bit half [x0, x1] -> [x0 + x1, x0 - x1].
  static VecSse2 butterfly1(VecSse2 a) {
    const auto pair = [](__m128d x) {
      const __m128d d0 = _mm_unpacklo_pd(x, x);  // [x0, x0]
      const __m128d d1 = _mm_unpackhi_pd(x, x);  // [x1, x1]
      return _mm_shuffle_pd(_mm_add_pd(d0, d1), _mm_sub_pd(d0, d1), 0);
    };
    return VecSse2{pair(a.lo), pair(a.hi)};
  }

  /// FWHT level half=2: lanes (0,2) and (1,3) pair, i.e. lo with hi.
  static VecSse2 butterfly2(VecSse2 a) {
    return VecSse2{_mm_add_pd(a.lo, a.hi), _mm_sub_pd(a.lo, a.hi)};
  }
};

}  // namespace mpte::simd
