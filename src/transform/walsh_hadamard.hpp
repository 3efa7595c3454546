// Fast Walsh–Hadamard Transform.
//
// The H in the FJLT phi(x) = P·H·D·x is the normalized d×d Walsh–Hadamard
// matrix H_{i,j} = d^{-1/2}(-1)^{<i-1,j-1>} (Section 5). Its butterfly
// factorization H_d = H_2^{otimes log d} evaluates in O(d log d) — the
// "fast" in FJLT — and its Kronecker split H_d = H_g ⊗ H_b is what the MPC
// version exploits to transform vectors larger than one machine's memory
// (see transform/mpc_fjlt.*).
#pragma once

#include <cstddef>
#include <span>

#include "geometry/point_set.hpp"

namespace mpte {

/// In-place unnormalized FWHT; data.size() must be a power of two. After
/// the call, data = H'_d * input where H'_d is the ±1 Hadamard matrix
/// (no d^{-1/2} factor).
void fwht(std::span<double> data);

/// In-place orthonormal FWHT: applies fwht then scales by d^{-1/2}, making
/// the map an isometry (||H x||_2 = ||x||_2).
void fwht_normalized(std::span<double> data);

/// Applies the orthonormal FWHT to every point of a power-of-two-dimension
/// point set, returning the transformed set.
PointSet fwht_points(const PointSet& points);

}  // namespace mpte
