// mpte::simd — the determinism contract, enforced.
//
// Every dispatched kernel must be *bitwise* identical to the scalar
// reference instantiation on every backend this binary/CPU offers, on
// every dimension shape (aligned, partial-tail, sub-lane), and on the
// nasty corners of double (signed zeros, denormals, huge magnitudes).
// The golden-fingerprint test then closes the loop end to end: the full
// MPC embedding pipeline produces the same bytes with vector kernels
// forced off and on, at 1 and 8 cluster threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "geometry/point_set.hpp"
#include "golden.hpp"
#include "simd/dispatch.hpp"

namespace mpte::simd {
namespace {

// The dimension shapes of the contract: sub-lane (1, 3), exactly one
// block (4), partial tail (7), aligned multiple (8), bulk (64), and a
// large non-multiple (1000).
const std::vector<std::size_t> kDims = {1, 3, 4, 7, 8, 64, 1000};

// Restores the dispatch default after a test that forces backends.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_backend()) {}
  ~BackendGuard() { set_backend(saved_); }

 private:
  Backend saved_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// A reproducible stream mixing ordinary values with the corners the
// contract calls out: both zero signs, denormals, and magnitudes large
// enough that any reassociation of a sum changes the result.
std::vector<double> corner_stream(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 7) {
      case 0:
        out[i] = rng.normal();
        break;
      case 1:
        out[i] = -0.0;
        break;
      case 2:
        out[i] = 0.0;
        break;
      case 3:
        out[i] = std::numeric_limits<double>::denorm_min() *
                 static_cast<double>(1 + (i % 5));
        break;
      case 4:
        out[i] = rng.normal() * 1e18;
        break;
      case 5:
        out[i] = rng.normal() * 1e-18;
        break;
      default:
        out[i] = rng.uniform(-100.0, 100.0);
        break;
    }
  }
  return out;
}

TEST(Dispatch, ScalarAlwaysAvailableAndPreferenceOrdered) {
  const auto avail = available_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), Backend::kScalar);
  for (std::size_t i = 1; i < avail.size(); ++i) {
    EXPECT_LT(static_cast<int>(avail[i - 1]), static_cast<int>(avail[i]));
  }
  EXPECT_EQ(avail.back(), best_backend());
}

TEST(Dispatch, BackendNamesRoundTrip) {
  Backend b{};
  EXPECT_TRUE(backend_from_name("scalar", &b));
  EXPECT_EQ(b, Backend::kScalar);
  EXPECT_TRUE(backend_from_name("sse2", &b));
  EXPECT_EQ(b, Backend::kSse2);
  EXPECT_TRUE(backend_from_name("avx2", &b));
  EXPECT_EQ(b, Backend::kAvx2);
  EXPECT_FALSE(backend_from_name("auto", &b));
  EXPECT_FALSE(backend_from_name("", &b));
  EXPECT_FALSE(backend_from_name("neon", &b));
  for (const Backend backend : available_backends()) {
    Backend parsed{};
    EXPECT_TRUE(backend_from_name(backend_name(backend), &parsed));
    EXPECT_EQ(parsed, backend);
  }
}

TEST(Dispatch, SetBackendSwitchesOpsAndRefusesUnavailable) {
  BackendGuard guard;
  for (const Backend backend : available_backends()) {
    ASSERT_TRUE(set_backend(backend));
    EXPECT_EQ(active_backend(), backend);
    EXPECT_STREQ(ops().name, backend_name(backend));
  }
}

// Every kernel, every available backend, every dimension shape: bitwise
// equality against the scalar reference instantiation.
TEST(KernelEquality, AllBackendsMatchScalarBitwise) {
  const Ops& ref = scalar_ops();
  for (const Backend backend : available_backends()) {
    BackendGuard guard;
    ASSERT_TRUE(set_backend(backend));
    const Ops& vec = ops();
    for (const std::size_t dim : kDims) {
      SCOPED_TRACE(std::string(backend_name(backend)) + " dim=" +
                   std::to_string(dim));
      const auto a = corner_stream(dim, 0x5eedull + dim);
      const auto b = corner_stream(dim, 0xfeedull + dim);

      EXPECT_EQ(bits(ref.l2sq(a.data(), b.data(), dim)),
                bits(vec.l2sq(a.data(), b.data(), dim)));
      EXPECT_EQ(bits(ref.dot(a.data(), b.data(), dim)),
                bits(vec.dot(a.data(), b.data(), dim)));

      // scale: multiply by an irrational-ish factor, compare every slot.
      std::vector<double> s_ref = a, s_vec = a;
      ref.scale(s_ref.data(), dim, 0x1.921fb54442d18p+1);
      vec.scale(s_vec.data(), dim, 0x1.921fb54442d18p+1);
      for (std::size_t i = 0; i < dim; ++i) {
        EXPECT_EQ(bits(s_ref[i]), bits(s_vec[i])) << "i=" << i;
      }

      // gemv: 5 rows of the corner stream against p.
      const std::size_t rows = 5;
      const auto m = corner_stream(rows * dim, 0xabcdull + dim);
      std::vector<double> g_ref(rows), g_vec(rows);
      ref.gemv(m.data(), rows, dim, a.data(), g_ref.data());
      vec.gemv(m.data(), rows, dim, a.data(), g_vec.data());
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(bits(g_ref[r]), bits(g_vec[r])) << "row=" << r;
      }

      // csr_row_dot: a strided sparse row over x (indices within bounds).
      std::vector<std::uint32_t> cols;
      std::vector<double> vals;
      for (std::size_t i = 0; i < dim; i += 2) {
        cols.push_back(static_cast<std::uint32_t>(dim - 1 - i));
        vals.push_back(b[i]);
      }
      EXPECT_EQ(
          bits(ref.csr_row_dot(vals.data(), cols.data(), cols.size(),
                               a.data())),
          bits(vec.csr_row_dot(vals.data(), cols.data(), cols.size(),
                               a.data())));

      // lattice_floor: shifts from the second stream, a well-behaved cell.
      std::vector<double> z_ref(dim), z_vec(dim);
      ref.lattice_floor(a.data(), b.data(), dim, 1.0 / 3.25, z_ref.data());
      vec.lattice_floor(a.data(), b.data(), dim, 1.0 / 3.25, z_vec.data());
      for (std::size_t i = 0; i < dim; ++i) {
        EXPECT_EQ(bits(z_ref[i]), bits(z_vec[i])) << "i=" << i;
      }
    }
  }
}

TEST(KernelEquality, FwhtMatchesScalarBitwiseOnPowerOfTwoRows) {
  const Ops& ref = scalar_ops();
  for (const Backend backend : available_backends()) {
    BackendGuard guard;
    ASSERT_TRUE(set_backend(backend));
    const Ops& vec = ops();
    for (const std::size_t n : {1u, 2u, 4u, 8u, 64u, 1024u}) {
      SCOPED_TRACE(std::string(backend_name(backend)) + " n=" +
                   std::to_string(n));
      const auto base = corner_stream(n, 0x4a11ull + n);
      std::vector<double> r = base, v = base;
      ref.fwht_row(r.data(), n);
      vec.fwht_row(v.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(r[i]), bits(v[i])) << "i=" << i;
      }
    }
  }
}

TEST(KernelEquality, BallFirstCoverMatchesScalarOnEveryBackend) {
  const Ops& ref = scalar_ops();
  Rng rng(2024);
  for (const Backend backend : available_backends()) {
    BackendGuard guard;
    ASSERT_TRUE(set_backend(backend));
    const Ops& vec = ops();
    for (const std::size_t dim : {1u, 3u, 8u}) {
      // 1..10 grids exercises full blocks, partial blocks, and sub-lane
      // grid counts.
      for (const std::size_t grids : {1u, 2u, 4u, 5u, 8u, 10u}) {
        const double cell = 4.0;
        std::vector<double> shifts(dim * grids);
        for (double& s : shifts) s = rng.uniform(0.0, cell);
        for (int trial = 0; trial < 50; ++trial) {
          std::vector<double> p(dim);
          for (double& x : p) x = rng.uniform(-20.0, 20.0);
          const std::size_t expect = ref.ball_first_cover(
              p.data(), dim, shifts.data(), grids, cell, 1.0 / cell, 1.0);
          const std::size_t got = vec.ball_first_cover(
              p.data(), dim, shifts.data(), grids, cell, 1.0 / cell, 1.0);
          EXPECT_EQ(expect, got)
              << backend_name(backend) << " dim=" << dim
              << " grids=" << grids << " trial=" << trial;
        }
      }
    }
  }
}

TEST(KernelEquality, BallFirstCoverBatchMatchesPerPointOnEveryBackend) {
  // The batch entry against per-point ball_first_cover (scalar reference
  // and the backend's own) on the specialised bucket dims 1-3 and the
  // generic 4-5, full and partial grid blocks, points no grid covers,
  // NaN coordinates, and strided rows (stride = k + 2).
  const Ops& ref = scalar_ops();
  Rng rng(0xba7c4ull);
  const double cell = 4.0;
  for (const Backend backend : available_backends()) {
    BackendGuard guard;
    ASSERT_TRUE(set_backend(backend));
    const Ops& vec = ops();
    for (std::size_t k = 1; k <= 5; ++k) {
      for (const std::size_t grids : {1u, 3u, 4u, 5u, 461u}) {
        std::vector<double> shifts(k * grids);
        for (double& s : shifts) s = rng.uniform(0.0, cell);
        const std::size_t stride = k + 2;
        constexpr std::size_t kPoints = 40;
        std::vector<double> rows(kPoints * stride);
        for (double& x : rows) x = rng.uniform(-20.0, 20.0);
        rows[3 * stride + k - 1] = std::numeric_limits<double>::quiet_NaN();
        rows[7 * stride] = std::numeric_limits<double>::quiet_NaN();
        // A large radius covers early; a tiny one leaves most points
        // uncovered at small grid counts.
        for (const double radius_sq : {1.0, 1e-4}) {
          SCOPED_TRACE(std::string(backend_name(backend)) +
                       " k=" + std::to_string(k) +
                       " grids=" + std::to_string(grids) +
                       " r2=" + std::to_string(radius_sq));
          for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kPoints}) {
            std::vector<std::uint32_t> out(n + 1, 0xabcdu);
            vec.ball_first_cover_batch(rows.data(), stride, n, k,
                                       shifts.data(), grids, cell,
                                       1.0 / cell, radius_sq, out.data());
            for (std::size_t i = 0; i < n; ++i) {
              const double* p = rows.data() + i * stride;
              const std::size_t expect = ref.ball_first_cover(
                  p, k, shifts.data(), grids, cell, 1.0 / cell, radius_sq);
              EXPECT_EQ(out[i], expect) << "point " << i;
              EXPECT_EQ(out[i], vec.ball_first_cover(p, k, shifts.data(),
                                                     grids, cell, 1.0 / cell,
                                                     radius_sq))
                  << "point " << i;
            }
            EXPECT_EQ(out[n], 0xabcdu) << "wrote past n=" << n;
            if (n == kPoints) {
              // A NaN coordinate is claimed by the first grid.
              EXPECT_EQ(out[3], 0u);
              EXPECT_EQ(out[7], 0u);
              if (grids == 1 && radius_sq < 1.0) {
                EXPECT_GT(std::count(out.begin(), out.end() - 1, 1u), 0)
                    << "expected uncovered points";
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquality, SignedZeroTailPaddingDoesNotLeakIntoSums) {
  // A tail consisting solely of -0.0 must not flip the sign of a zero
  // accumulator: load_partial pads with +0.0 and (-0.0) + (+0.0) = +0.0.
  const std::vector<double> nz = {-0.0, -0.0, -0.0};
  const std::vector<double> zero = {0.0, 0.0, 0.0};
  for (const Backend backend : available_backends()) {
    BackendGuard guard;
    ASSERT_TRUE(set_backend(backend));
    const double s = ops().l2sq(nz.data(), zero.data(), nz.size());
    EXPECT_EQ(bits(s), bits(0.0)) << backend_name(backend);
    const double d = ops().dot(nz.data(), nz.data(), nz.size());
    EXPECT_EQ(bits(d), bits(0.0)) << backend_name(backend);
  }
}

// The end-to-end contract: the golden embedding fingerprint (golden.hpp,
// pinned since the seed implementation) is byte-identical
// with the scalar reference forced and with the dispatched vector backend,
// at 1 and 8 cluster threads.
TEST(GoldenSeedSimd, FingerprintIdenticalAcrossBackendsAndThreads) {
  BackendGuard guard;
  for (const Backend backend : available_backends()) {
    ASSERT_TRUE(set_backend(backend));
    for (const std::size_t threads : {1u, 8u}) {
      mpc::Cluster cluster(golden::golden_config(threads));
      const auto result = golden::golden_embed(cluster);
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_EQ(golden::fingerprint(*result), golden::kGoldenHash)
          << "backend=" << backend_name(backend) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace mpte::simd
