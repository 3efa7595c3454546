// Small numeric helpers shared across modules: power-of-two arithmetic for
// the Walsh–Hadamard transform and unit-ball volumes for ball-partition
// coverage probabilities (Lemmas 6–7).
#pragma once

#include <cstddef>
#include <cstdint>

namespace mpte {

/// True iff x is a power of two (and nonzero).
bool is_power_of_two(std::uint64_t x);

/// Smallest power of two >= x (x = 0 maps to 1).
std::uint64_t next_power_of_two(std::uint64_t x);

/// floor(log2(x)); requires x >= 1.
unsigned floor_log2(std::uint64_t x);

/// ceil(log2(x)); requires x >= 1 (returns 0 for x = 1).
unsigned ceil_log2(std::uint64_t x);

/// Ceiling division for nonnegative integers; requires divisor > 0.
std::uint64_t ceil_div(std::uint64_t numerator, std::uint64_t divisor);

/// Volume of the k-dimensional unit ball, pi^{k/2} / Gamma(k/2 + 1).
double unit_ball_volume(unsigned k);

/// Probability that a fixed point is covered by one random shifted grid of
/// radius-w balls on a cell of width 4w in k dimensions: V_k(1) / 4^k.
/// Independent of w by scaling.
double ball_grid_cover_probability(unsigned k);

}  // namespace mpte
