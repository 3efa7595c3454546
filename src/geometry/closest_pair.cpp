#include "geometry/closest_pair.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/parallel.hpp"
#include "geometry/bounding_box.hpp"
#include "simd/dispatch.hpp"

namespace mpte {
namespace {

/// Per point in sweep order: the sort key, then the coordinates on the
/// next widest axes (zero when d is smaller). The lower bound reads only
/// this record, so candidates that fail it never touch their full row.
constexpr std::size_t kHead = 4;

/// Chunks per thread: enough that dynamically claimed chunks even out
/// anchors whose forward sweeps differ in length.
constexpr std::size_t kChunksPerThread = 16;

/// Runs best = body(begin, end, best) over [0, count) in chunks the par
/// pool claims dynamically, and returns the smallest best. Each chunk
/// starts from the smallest best published so far (never above `start`)
/// and publishes its own when done; which chunk sees which bound is
/// scheduling noise, but the minimum is exact whatever the schedule.
template <class Body>
double chunked_min(std::size_t count, double start, const Body& body) {
  std::atomic<double> shared{start};
  const std::size_t chunks = par::resolve_threads(0) * kChunksPerThread;
  par::parallel_for_chunked(
      0, count, chunks,
      [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        const double best =
            body(begin, end, shared.load(std::memory_order_relaxed));
        double seen = shared.load(std::memory_order_relaxed);
        while (best < seen && !shared.compare_exchange_weak(seen, best)) {
        }
      });
  return shared.load();
}

}  // namespace

double closest_pair_distance(const PointSet& points) {
  const std::size_t n = points.size();
  const std::size_t d = points.dim();
  if (n < 2 || d == 0) return 0.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Axes by decreasing extent: the widest is the sweep axis, the next
  // kHead - 1 feed the lower bound.
  const BoundingBox box = BoundingBox::of(points);
  std::vector<double> extent(d);
  for (std::size_t j = 0; j < d; ++j) {
    const double e = box.hi()[j] - box.lo()[j];
    extent[j] = std::isnan(e) ? -1.0 : e;
  }
  std::vector<std::size_t> axes(d);
  std::iota(axes.begin(), axes.end(), std::size_t{0});
  std::stable_sort(axes.begin(), axes.end(),
                   [&](std::size_t a, std::size_t b) {
                     return extent[a] > extent[b];
                   });

  // Sort along the sweep axis. NaN keys sort as +inf, which keeps the
  // order strict-weak; any pair with a NaN coordinate has a NaN l2sq,
  // which the minimum ignores exactly as the all-pairs scan does.
  std::vector<double> key(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = points.coord(i, axes[0]);
    key[i] = std::isnan(x) ? kInf : x;
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return key[a] < key[b] || (key[a] == key[b] && a < b);
  });

  // Rows and head records copied into sweep order, so a sweep reads
  // memory front to back.
  std::vector<double> rows(n * d);
  std::vector<double> head(n * kHead, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto p = points[order[r]];
    std::copy(p.begin(), p.end(), rows.data() + r * d);
    head[r * kHead] = key[order[r]];
    for (std::size_t m = 1; m < kHead && m < d; ++m) {
      head[r * kHead + m] = p[axes[m]];
    }
  }
  const auto row = [&](std::size_t r) { return rows.data() + r * d; };

  // First bound: the pairs adjacent in sweep order.
  const double adjacent = chunked_min(
      n - 1, kInf, [&](std::size_t begin, std::size_t end, double best) {
        const simd::Ops& ops = simd::ops();
        for (std::size_t r = begin; r < end; ++r) {
          best = std::min(best, ops.l2sq(row(r), row(r + 1), d));
        }
        return best;
      });
  if (adjacent == 0.0) return 0.0;

  // l2sq sums non-negative squared gaps, one rounding per step; the
  // partial lower bound sums kHead of the same terms. Skipping a pair
  // whose partial sum exceeds best * (1 + slack) is safe with slack well
  // above the (d + kHead) unit roundoffs the two sums can differ by.
  const double slack = 4.0 * static_cast<double>(d + kHead + 8) *
                       std::numeric_limits<double>::epsilon();
  const double best_sq = chunked_min(
      n - 2, adjacent, [&](std::size_t begin, std::size_t end, double best) {
        const simd::Ops& ops = simd::ops();
        double cut = best + best * slack;
        for (std::size_t r = begin; r < end && best > 0.0; ++r) {
          const double* hr = head.data() + r * kHead;
          for (std::size_t s = r + 2; s < n; ++s) {
            const double* hs = head.data() + s * kHead;
            const double gap = hs[0] - hr[0];
            double lb = gap * gap;
            // l2sq never rounds below any one of its terms, and every
            // later partner is at least as far along the axis.
            if (lb > best) break;
            for (std::size_t m = 1; m < kHead; ++m) {
              const double t = hs[m] - hr[m];
              lb += t * t;
            }
            if (lb > cut) continue;
            const double d2 = ops.l2sq(row(r), row(s), d);
            if (d2 < best) {
              best = d2;
              cut = best + best * slack;
            }
          }
        }
        return best;
      });
  return std::sqrt(best_sq);
}

}  // namespace mpte
