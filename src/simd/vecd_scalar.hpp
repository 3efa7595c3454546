// Scalar reference implementation of the VecD contract (simd/vecd.hpp):
// four virtual lanes held in a plain double array. Every operation is the
// exact IEEE-754 double operation the vector backends perform lane-wise,
// so instantiating the shared kernel templates (simd/kernels-inl.hpp) with
// this type defines the bit-level semantics the SSE2/AVX2 instantiations
// must (and do) reproduce.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace mpte::simd {

struct VecScalar {
  static constexpr std::size_t kLanes = 4;

  double v[kLanes];

  static VecScalar zero() { return VecScalar{{0.0, 0.0, 0.0, 0.0}}; }

  static VecScalar broadcast(double x) { return VecScalar{{x, x, x, x}}; }

  static VecScalar load(const double* p) {
    return VecScalar{{p[0], p[1], p[2], p[3]}};
  }

  /// Loads n < 4 leading lanes; the rest are +0.0.
  static VecScalar load_partial(const double* p, std::size_t n) {
    VecScalar r = zero();
    for (std::size_t l = 0; l < n; ++l) r.v[l] = p[l];
    return r;
  }

  static VecScalar gather(const double* base, const std::uint32_t* idx) {
    return VecScalar{{base[idx[0]], base[idx[1]], base[idx[2]],
                      base[idx[3]]}};
  }

  /// Gathers n < 4 leading lanes; the rest are +0.0.
  static VecScalar gather_partial(const double* base,
                                  const std::uint32_t* idx, std::size_t n) {
    VecScalar r = zero();
    for (std::size_t l = 0; l < n; ++l) r.v[l] = base[idx[l]];
    return r;
  }

  void store(double* p) const {
    p[0] = v[0];
    p[1] = v[1];
    p[2] = v[2];
    p[3] = v[3];
  }

  double lane(std::size_t l) const { return v[l]; }

  /// Index of the first lane l with !(lane(l) > x) — NaN lanes count as
  /// not above — or kLanes when every lane is above x.
  std::size_t first_not_above(double x) const {
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (!(v[l] > x)) return l;
    }
    return kLanes;
  }

  friend VecScalar operator+(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
                      a.v[3] + b.v[3]}};
  }
  friend VecScalar operator-(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2],
                      a.v[3] - b.v[3]}};
  }
  friend VecScalar operator*(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
                      a.v[3] * b.v[3]}};
  }

  /// FWHT level half=1 within the block: pairs (0,1) and (2,3) become
  /// (sum, difference). Same IEEE add/sub the generic butterfly loop does;
  /// vector backends perform it with in-register shuffles.
  static VecScalar butterfly1(VecScalar a) {
    return VecScalar{{a.v[0] + a.v[1], a.v[0] - a.v[1], a.v[2] + a.v[3],
                      a.v[2] - a.v[3]}};
  }

  /// FWHT level half=2 within the block: pairs (0,2) and (1,3).
  static VecScalar butterfly2(VecScalar a) {
    return VecScalar{{a.v[0] + a.v[2], a.v[1] + a.v[3], a.v[0] - a.v[2],
                      a.v[1] - a.v[3]}};
  }

  static VecScalar floor(VecScalar a) {
    return VecScalar{{std::floor(a.v[0]), std::floor(a.v[1]),
                      std::floor(a.v[2]), std::floor(a.v[3])}};
  }

  /// Round to nearest, ties to even (the default FP environment); the
  /// semantics of _mm256_round_pd(_MM_FROUND_TO_NEAREST_INT).
  static VecScalar round_even(VecScalar a) {
    return VecScalar{{std::nearbyint(a.v[0]), std::nearbyint(a.v[1]),
                      std::nearbyint(a.v[2]), std::nearbyint(a.v[3])}};
  }
};

}  // namespace mpte::simd
