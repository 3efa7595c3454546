#include "transform/walsh_hadamard.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "geometry/generators.hpp"
#include "oracles.hpp"

namespace mpte {
namespace {

TEST(Fwht, LengthMustBePowerOfTwo) {
  std::vector<double> data(3, 1.0);
  EXPECT_THROW(fwht(data), MpteError);
}

TEST(Fwht, SizeOneIsIdentity) {
  std::vector<double> data{5.0};
  fwht(data);
  EXPECT_EQ(data[0], 5.0);
}

TEST(Fwht, SizeTwoButterfly) {
  std::vector<double> data{3.0, 1.0};
  fwht(data);
  EXPECT_EQ(data[0], 4.0);
  EXPECT_EQ(data[1], 2.0);
}

TEST(Fwht, MatchesDenseHadamardDefinition) {
  const std::size_t d = 16;
  Rng rng(1);
  std::vector<double> input(d);
  for (double& x : input) x = rng.normal();

  std::vector<double> fast = input;
  fwht_normalized(fast);

  for (std::size_t i = 0; i < d; ++i) {
    double expected = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      expected += hadamard_entry(d, i, j) * input[j];
    }
    EXPECT_NEAR(fast[i], expected, 1e-12) << "row " << i;
  }
}

TEST(Fwht, NormalizedIsInvolution) {
  // H is symmetric orthonormal: applying it twice is the identity.
  Rng rng(2);
  std::vector<double> input(64);
  for (double& x : input) x = rng.normal();
  std::vector<double> twice = input;
  fwht_normalized(twice);
  fwht_normalized(twice);
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_NEAR(twice[i], input[i], 1e-10);
  }
}

TEST(Fwht, NormalizedPreservesNorm) {
  Rng rng(3);
  for (const std::size_t d : {2u, 8u, 128u, 1024u}) {
    std::vector<double> input(d);
    double norm_sq = 0.0;
    for (double& x : input) {
      x = rng.normal();
      norm_sq += x * x;
    }
    std::vector<double> out = input;
    fwht_normalized(out);
    double out_norm_sq = 0.0;
    for (const double x : out) out_norm_sq += x * x;
    EXPECT_NEAR(out_norm_sq, norm_sq, 1e-9 * norm_sq) << "d=" << d;
  }
}

TEST(Fwht, Linearity) {
  Rng rng(4);
  const std::size_t d = 32;
  std::vector<double> a(d), b(d), combo(d);
  for (std::size_t i = 0; i < d; ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
    combo[i] = 2.0 * a[i] - 3.0 * b[i];
  }
  fwht(a);
  fwht(b);
  fwht(combo);
  for (std::size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(combo[i], 2.0 * a[i] - 3.0 * b[i], 1e-9);
  }
}

TEST(Fwht, ImpulseGivesConstantRow) {
  std::vector<double> impulse(8, 0.0);
  impulse[0] = 1.0;
  fwht(impulse);
  for (const double x : impulse) EXPECT_EQ(x, 1.0);
}

TEST(HadamardEntry, SignsAndScale) {
  EXPECT_NEAR(hadamard_entry(4, 0, 0), 0.5, 1e-15);
  EXPECT_NEAR(hadamard_entry(4, 1, 1), -0.5, 1e-15);  // popcount(1&1)=1
  EXPECT_NEAR(hadamard_entry(4, 3, 3), 0.5, 1e-15);   // popcount(3)=2
  EXPECT_THROW(hadamard_entry(3, 0, 0), MpteError);
}

TEST(Fwht, KroneckerFactorizationIdentity) {
  // H_d = H_g (x) H_b: FWHT over the low log2(b) bits within blocks, then
  // FWHT over the high bits across blocks at each offset, equals the flat
  // transform. This identity is what the distributed MPC FWHT relies on.
  const std::size_t b = 8, g = 4, d = b * g;
  Rng rng(9);
  std::vector<double> input(d);
  for (double& x : input) x = rng.normal();

  std::vector<double> flat = input;
  fwht(flat);

  std::vector<double> staged = input;
  for (std::size_t j = 0; j < g; ++j) {
    fwht(std::span<double>(staged.data() + j * b, b));
  }
  std::vector<double> column(g);
  for (std::size_t o = 0; o < b; ++o) {
    for (std::size_t j = 0; j < g; ++j) column[j] = staged[j * b + o];
    fwht(column);
    for (std::size_t j = 0; j < g; ++j) staged[j * b + o] = column[j];
  }
  for (std::size_t e = 0; e < d; ++e) {
    EXPECT_EQ(staged[e], flat[e]) << "element " << e;  // bit-identical
  }
}

TEST(Fwht, ThreeFactorKroneckerIdentity) {
  // The same identity nested once more (the general m-stage MPC path):
  // chunks of 2, 2, and 1 bits over d = 32.
  const std::size_t d = 32;
  Rng rng(10);
  std::vector<double> input(d);
  for (double& x : input) x = rng.normal();

  std::vector<double> flat = input;
  fwht(flat);

  std::vector<double> staged = input;
  const std::size_t chunk_bits[] = {2, 2, 1};
  std::size_t offset = 0;
  for (const std::size_t bits : chunk_bits) {
    const std::size_t fiber = 1u << bits;
    std::vector<double> buffer(fiber);
    for (std::size_t group = 0; group < d / fiber; ++group) {
      // Elements sharing all bits except [offset, offset+bits).
      const std::size_t low_mask = (1u << offset) - 1u;
      const std::size_t low = group & low_mask;
      const std::size_t high = (group >> offset) << (offset + bits);
      for (std::size_t digit = 0; digit < fiber; ++digit) {
        buffer[digit] = staged[high | (digit << offset) | low];
      }
      fwht(buffer);
      for (std::size_t digit = 0; digit < fiber; ++digit) {
        staged[high | (digit << offset) | low] = buffer[digit];
      }
    }
    offset += bits;
  }
  for (std::size_t e = 0; e < d; ++e) {
    EXPECT_EQ(staged[e], flat[e]) << "element " << e;
  }
}

TEST(FwhtPoints, TransformsEveryRow) {
  const PointSet points = generate_uniform_cube(10, 16, 1.0, 5);
  const PointSet out = fwht_points(points);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    std::vector<double> expected(points[i].begin(), points[i].end());
    fwht_normalized(expected);
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_NEAR(out[i][j], expected[j], 1e-12);
    }
  }
}

}  // namespace
}  // namespace mpte
