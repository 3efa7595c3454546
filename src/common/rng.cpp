#include "common/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace mpte {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t value) {
  std::uint64_t s = value;
  return splitmix64(s);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  // boost::hash_combine recipe widened to 64 bits.
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4)));
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // xoshiro state must not be all-zero; splitmix64 seeding guarantees a
  // well-mixed nonzero state for any seed.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::split(std::uint64_t key) const {
  // Derive the child seed from the *current* state and the key, without
  // advancing this generator: hash the full state with the key.
  std::uint64_t h = mix64(key);
  for (const auto word : state_) h = hash_combine(h, word);
  return Rng(h);
}

std::uint64_t Rng::uniform_u64(std::uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling on the top of the range to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;  // (2^64 - bound) mod bound
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  // Box–Muller; draw u1 from (0,1] so log() is finite.
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

}  // namespace mpte
