#include "geometry/closest_pair.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "geometry/bounding_box.hpp"
#include "geometry/generators.hpp"
#include "geometry/point_set.hpp"
#include "geometry/quantize.hpp"
#include "oracles.hpp"
#include "simd/dispatch.hpp"

namespace mpte {
namespace {

struct Input {
  std::string name;
  PointSet points;
};

/// Rows of `points` followed by copies of rows 0, 3 and 3 again.
PointSet with_duplicates(PointSet points) {
  for (const std::size_t row : {0, 3, 3}) {
    const std::vector<double> copy(points[row].begin(), points[row].end());
    points.push_back(copy);
  }
  return points;
}

PointSet scaled(PointSet points, double factor) {
  for (double& x : points.raw()) x *= factor;
  return points;
}

/// A chain A_i = (i + noise, 0, ...) whose neighbours are ~1 apart, with
/// their distances differing by ~1e-9, interleaved along the sweep axis
/// with far points B_i = (i + 0.5, 10, ...). No two chain points are
/// adjacent in sweep order, so only the sweep can find the closest pair,
/// and a bound or break that is off by any margin above 1e-9 misses it.
PointSet interleaved_chain(std::size_t links, std::size_t dim,
                           std::uint64_t seed) {
  Rng rng(seed);
  PointSet points(2 * links, dim);
  for (std::size_t i = 0; i < links; ++i) {
    points.coord(2 * i, 0) = static_cast<double>(i) + 1e-9 * rng.uniform();
    points.coord(2 * i + 1, 0) = static_cast<double>(i) + 0.5;
    for (std::size_t j = 1; j < dim; ++j) points.coord(2 * i + 1, j) = 10.0;
  }
  return points;
}

/// The oracle matrix: clustered, uniform from d = 1 to 512, lattices whose
/// closest distance is tied many times over (step 0.1 is not a double, so
/// the tied distances differ in their last bits), near-ties reachable only
/// by the sweep, duplicates, identical points, the smallest n, and a scale
/// whose squared gaps are subnormal.
std::vector<Input> inputs() {
  std::vector<Input> out;
  out.push_back({"clusters_d16",
                 generate_gaussian_clusters(900, 16, 8, 100.0, 1.0, 3)});
  out.push_back({"clusters_d128",
                 generate_gaussian_clusters(400, 128, 4, 50.0, 1.0, 5)});
  out.push_back({"clusters_d310",
                 generate_gaussian_clusters(300, 310, 4, 50.0, 1.0, 7)});
  for (const std::size_t dim : {1, 2, 16, 128, 512}) {
    const std::size_t n = dim >= 128 ? 300 : 800;
    out.push_back({"uniform_d" + std::to_string(dim),
                   generate_uniform_cube(n, dim, 1.0, 11 + dim)});
  }
  out.push_back({"lattice_step1_d3", generate_lattice(500, 3, 1.0)});
  out.push_back({"lattice_step0.1_d4", generate_lattice(600, 4, 0.1)});
  out.push_back({"lattice_duplicates",
                 with_duplicates(generate_lattice(400, 2, 0.1))});
  out.push_back({"uniform_duplicates",
                 with_duplicates(generate_uniform_cube(300, 8, 1.0, 13))});
  out.push_back({"identical", PointSet(50, 6, std::vector<double>(300, 2.5))});
  out.push_back({"n2", generate_uniform_cube(2, 5, 1.0, 17)});
  out.push_back({"n3", generate_uniform_cube(3, 5, 1.0, 19)});
  out.push_back({"n3_line", PointSet(3, 1, {0.0, 3.0, 1.0})});
  out.push_back({"interleaved_chain_d2", interleaved_chain(300, 2, 31)});
  out.push_back({"interleaved_chain_d16", interleaved_chain(300, 16, 37)});
  out.push_back({"subnormal_scale",
                 scaled(generate_uniform_cube(400, 3, 1.0, 23), 1e-160)});
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

class ThreadsGuard {
 public:
  ~ThreadsGuard() { par::set_default_threads(0); }
};

class BackendGuard {
 public:
  BackendGuard() : saved_(simd::active_backend()) {}
  ~BackendGuard() { simd::set_backend(saved_); }

 private:
  simd::Backend saved_;
};

TEST(ClosestPair, BitEqualToAllPairsOracleOnEveryBackendAndThreadCount) {
  const ThreadsGuard threads_guard;
  const BackendGuard backend_guard;
  for (const Input& input : inputs()) {
    ASSERT_TRUE(simd::set_backend(simd::Backend::kScalar));
    par::set_default_threads(1);
    const double oracle = pairwise_distance_extremes(input.points).min;
    for (const simd::Backend backend : simd::available_backends()) {
      ASSERT_TRUE(simd::set_backend(backend));
      for (const std::size_t threads : {1, 8}) {
        par::set_default_threads(threads);
        const double found = closest_pair_distance(input.points);
        EXPECT_EQ(bits(found), bits(oracle))
            << input.name << " backend " << simd::backend_name(backend)
            << " threads " << threads << ": " << found << " vs " << oracle;
      }
    }
  }
}

TEST(ClosestPair, DegenerateInputs) {
  EXPECT_EQ(closest_pair_distance(PointSet()), 0.0);
  EXPECT_EQ(closest_pair_distance(PointSet(1, 4)), 0.0);
  EXPECT_EQ(closest_pair_distance(PointSet(5, 0)), 0.0);
  EXPECT_EQ(closest_pair_distance(PointSet(2, 2, {0.0, 0.0, 3.0, 4.0})), 5.0);
}

TEST(ClosestPair, NanCoordinatesAreIgnoredLikeTheOracle) {
  PointSet points = generate_uniform_cube(200, 3, 1.0, 29);
  points.coord(7, 0) = std::nan("");
  points.coord(50, 2) = std::nan("");
  const double oracle = pairwise_distance_extremes(points).min;
  EXPECT_EQ(bits(closest_pair_distance(points)), bits(oracle));
}

TEST(RecommendedDelta, MatchesTheAllPairsFormula) {
  const ThreadsGuard threads_guard;
  for (const Input& input : inputs()) {
    for (const std::size_t threads : {1, 8}) {
      par::set_default_threads(threads);
      // The derivation recommended_delta used with the all-pairs scan.
      const auto ext = pairwise_distance_extremes(input.points);
      std::uint64_t expected = 2;
      if (ext.max != 0.0 && ext.min != 0.0) {
        const double width = BoundingBox::of(input.points).width();
        const double sqrt_d =
            std::sqrt(static_cast<double>(input.points.dim()));
        const double needed = width * sqrt_d / (0.05 * ext.min) + 1.0;
        expected = static_cast<std::uint64_t>(
            std::ceil(std::clamp(needed, 2.0, double(1ull << 20))));
      }
      EXPECT_EQ(recommended_delta(input.points, 0.05, 1ull << 20), expected)
          << input.name << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace mpte
