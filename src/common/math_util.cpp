#include "common/math_util.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <math.h>
#include <numbers>

namespace mpte {

bool is_power_of_two(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

std::uint64_t next_power_of_two(std::uint64_t x) {
  if (x <= 1) return 1;
  return std::bit_ceil(x);
}

unsigned floor_log2(std::uint64_t x) {
  assert(x >= 1);
  return 63u - static_cast<unsigned>(std::countl_zero(x));
}

unsigned ceil_log2(std::uint64_t x) {
  assert(x >= 1);
  const unsigned f = floor_log2(x);
  return is_power_of_two(x) ? f : f + 1;
}

std::uint64_t ceil_div(std::uint64_t numerator, std::uint64_t divisor) {
  assert(divisor > 0);
  return (numerator + divisor - 1) / divisor;
}

double unit_ball_volume(unsigned k) {
  // V_k = pi^{k/2} / Gamma(k/2 + 1); log-gamma keeps it stable for large
  // k. lgamma_r returns the same value as std::lgamma but reports the sign
  // through its argument instead of writing the global `signgam`, so
  // concurrent callers (the parallel ensemble build) do not race.
  const double half_k = 0.5 * static_cast<double>(k);
  int sign = 0;
  return std::exp(half_k * std::log(std::numbers::pi) -
                  ::lgamma_r(half_k + 1.0, &sign));
}

double ball_grid_cover_probability(unsigned k) {
  // Ball volume V_k(w) = V_k(1) w^k over cell volume (4w)^k.
  return unit_ball_volume(k) / std::pow(4.0, static_cast<double>(k));
}

}  // namespace mpte
