#include "partition/coverage.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/math_util.hpp"
#include "common/status.hpp"

namespace mpte {

std::size_t recommended_num_grids(std::size_t bucket_dim,
                                  std::size_t n_points, std::size_t buckets,
                                  std::size_t levels, double fail_prob) {
  if (fail_prob <= 0.0 || fail_prob >= 1.0) {
    throw MpteError("recommended_num_grids: fail_prob must be in (0, 1)");
  }
  if (bucket_dim == 0) {
    throw MpteError("recommended_num_grids: bucket_dim must be >= 1");
  }
  const double p = ball_grid_cover_probability(
      static_cast<unsigned>(bucket_dim));
  const double events = static_cast<double>(std::max<std::size_t>(
                            1, n_points * buckets * levels));
  // (1-p)^U * events <= fail_prob  =>  U >= ln(events/fail_prob)/(-ln(1-p)).
  const double u = std::log(events / fail_prob) / (-std::log1p(-p));
  // Saturate: for bucket dims past ~12 the count exceeds anything
  // representable or runnable — exactly the infeasibility that motivates
  // hybridization. Callers hitting the cap get a deterministic huge value
  // rather than cast UB.
  constexpr double kCap = 1e15;
  return static_cast<std::size_t>(std::clamp(std::ceil(u), 1.0, kCap));
}

Status check_grid_set_size(std::size_t bucket_dim, std::size_t num_grids) {
  const std::size_t max_entries =
      kMaxShiftTableBytes / sizeof(double) / std::max<std::size_t>(1, bucket_dim);
  if (num_grids <= kMaxGridsPerSet && num_grids <= max_entries) {
    return Status::Ok();
  }
  return Status(StatusCode::kInvalidArgument,
                "ball partitioning needs U = " + std::to_string(num_grids) +
                    " grids per bucket of k = " + std::to_string(bucket_dim) +
                    " dims, past the limit of " +
                    std::to_string(std::min(kMaxGridsPerSet, max_entries)) +
                    " (a 32-bit grid index and a 1 GiB shift table); use "
                    "more buckets so each has fewer dims");
}

double lemma7_grid_bound(std::size_t bucket_dim, std::size_t buckets,
                         std::size_t levels, double fail_prob) {
  const double k = static_cast<double>(std::max<std::size_t>(bucket_dim, 2));
  const double exponent = k * std::log2(k);
  return std::exp2(exponent) *
         std::log(static_cast<double>(buckets * levels) / fail_prob);
}

double coverage_failure_probability(std::size_t bucket_dim,
                                    std::size_t n_points, std::size_t grids) {
  const double p = ball_grid_cover_probability(
      static_cast<unsigned>(bucket_dim));
  const double miss =
      std::exp(static_cast<double>(grids) * std::log1p(-p));
  return std::min(1.0, static_cast<double>(n_points) * miss);
}

}  // namespace mpte
