// Deterministic, splittable random number generation.
//
// Every randomized stage in this library takes an explicit 64-bit seed so
// that whole experiments are reproducible bit-for-bit. `Rng` wraps the
// xoshiro256** generator (public-domain algorithm by Blackman & Vigna)
// seeded via splitmix64, and `Rng::split` derives statistically independent
// child streams — the idiom used to hand each MPC machine, each level of a
// hierarchy, or each grid attempt its own stream without coordination.
#pragma once

#include <cstdint>
#include <limits>

namespace mpte {

/// xoshiro256** PRNG with splitmix64 seeding and stream splitting.
///
/// Satisfies std::uniform_random_bit_generator, so it can be used with
/// <random> distributions, though the member helpers below are preferred
/// (they are deterministic across standard library implementations).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; distinct seeds give independent streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 uniformly random bits.
  std::uint64_t operator()();

  /// Derives an independent child stream keyed by `key`. Calling split with
  /// the same key twice yields the same child; different keys (or different
  /// parents) yield unrelated streams. Does not advance this generator.
  [[nodiscard]] Rng split(std::uint64_t key) const;

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased
  /// (Lemire-style rejection).
  std::uint64_t uniform_u64(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (no state caching: two calls per pair
  /// would complicate reproducibility of interleaved consumers).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

 private:
  std::uint64_t state_[4];
};

/// splitmix64 step: the standard 64-bit mixer, exposed because several
/// modules use it to hash composite keys into seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// One-shot mix of a value (stateless convenience over splitmix64).
std::uint64_t mix64(std::uint64_t value);

/// Combines two 64-bit hashes/keys into one (order-sensitive).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

}  // namespace mpte
