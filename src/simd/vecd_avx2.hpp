// AVX2 implementation of the VecD contract: the four virtual lanes are one
// 256-bit register, so every kernel step is a single instruction. Packed
// floor/round use VROUNDPD, whose to-nearest mode is ties-to-even — the
// same result std::nearbyint produces under the default FP environment, so
// this backend is bit-identical to the scalar reference. The CSR kernel
// uses VGATHERDPD for the column loads. Compiled only in the -mavx2 TU;
// never include this header elsewhere.
#pragma once

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

namespace mpte::simd {

struct VecAvx2 {
  static constexpr std::size_t kLanes = 4;

  __m256d v;

  static VecAvx2 zero() { return VecAvx2{_mm256_setzero_pd()}; }

  static VecAvx2 broadcast(double x) { return VecAvx2{_mm256_set1_pd(x)}; }

  static VecAvx2 load(const double* p) {
    return VecAvx2{_mm256_loadu_pd(p)};
  }

  static VecAvx2 load_partial(const double* p, std::size_t n) {
    double tmp[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t l = 0; l < n; ++l) tmp[l] = p[l];
    return load(tmp);
  }

  static VecAvx2 gather(const double* base, const std::uint32_t* idx) {
    const __m128i vindex =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    // Masked form with an explicit zero source: the plain
    // _mm256_i32gather_pd expands through _mm256_undefined_pd, which trips
    // GCC's -Wmaybe-uninitialized under -Werror.
    const __m256d ones =
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return VecAvx2{
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, vindex, ones, 8)};
  }

  static VecAvx2 gather_partial(const double* base, const std::uint32_t* idx,
                                std::size_t n) {
    double tmp[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t l = 0; l < n; ++l) tmp[l] = base[idx[l]];
    return load(tmp);
  }

  void store(double* p) const { _mm256_storeu_pd(p, v); }

  double lane(std::size_t l) const {
    double tmp[kLanes];
    store(tmp);
    return tmp[l];
  }

  /// First lane with !(lane > x), or kLanes: the unordered not-greater
  /// compare is true on NaN, and MOVMSKPD gathers the four lane bits.
  std::size_t first_not_above(double x) const {
    const auto mask = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(v, _mm256_set1_pd(x), _CMP_NGT_UQ)));
    return mask == 0 ? kLanes : static_cast<std::size_t>(std::countr_zero(mask));
  }

  friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_add_pd(a.v, b.v)};
  }
  friend VecAvx2 operator-(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_sub_pd(a.v, b.v)};
  }
  friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_mul_pd(a.v, b.v)};
  }

  /// FWHT level half=1: [x0, x1, x2, x3] -> [x0+x1, x0-x1, x2+x3, x2-x3].
  /// The blend picks sums from x + swapped and differences from
  /// swapped - x so every selected lane is exactly a+b or a-b in the
  /// scalar orientation — no sign trick, bit-identical to the reference.
  static VecAvx2 butterfly1(VecAvx2 a) {
    const __m256d y = _mm256_permute_pd(a.v, 0b0101);  // [x1, x0, x3, x2]
    return VecAvx2{_mm256_blend_pd(_mm256_add_pd(a.v, y),
                                   _mm256_sub_pd(y, a.v), 0b1010)};
  }

  /// FWHT level half=2: [x0, x1, x2, x3] -> [x0+x2, x1+x3, x0-x2, x1-x3].
  static VecAvx2 butterfly2(VecAvx2 a) {
    const __m256d y = _mm256_permute4x64_pd(a.v, 0x4E);  // [x2, x3, x0, x1]
    return VecAvx2{_mm256_blend_pd(_mm256_add_pd(a.v, y),
                                   _mm256_sub_pd(y, a.v), 0b1100)};
  }

  static VecAvx2 floor(VecAvx2 a) {
    return VecAvx2{_mm256_floor_pd(a.v)};
  }

  static VecAvx2 round_even(VecAvx2 a) {
    return VecAvx2{_mm256_round_pd(
        a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
  }
};

}  // namespace mpte::simd
