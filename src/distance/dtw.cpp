#include "distance/dtw.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mda::dist {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

bool DistanceParams::in_band(std::size_t i, std::size_t j, std::size_t m,
                             std::size_t n) const {
  if (band < 0) return true;
  // Scale the diagonal for unequal lengths (standard generalisation).
  const double diag = n <= 1 || m <= 1
                          ? static_cast<double>(i)
                          : 1.0 + (static_cast<double>(j) - 1.0) *
                                      (static_cast<double>(m) - 1.0) /
                                      (static_cast<double>(n) - 1.0);
  return std::abs(static_cast<double>(i) - diag) <= static_cast<double>(band);
}

bool band_row(const DistanceParams& params, std::size_t i, std::size_t m,
              std::size_t n, std::size_t& lo, std::size_t& hi) {
  if (params.band < 0) {
    lo = 1;
    hi = n;
    return true;
  }
  // in_band's diagonal is non-decreasing in j (and its rounding monotone),
  // so each row's band is one contiguous run whose ends never move left as
  // i grows: resume both scans from the previous row's ends.
  while (lo <= n && !params.in_band(i, lo, m, n)) ++lo;
  if (lo > n) return false;
  hi = std::max(hi, lo);
  while (hi < n && params.in_band(i, hi + 1, m, n)) ++hi;
  return true;
}

double dtw(std::span<const double> p, std::span<const double> q,
           const DistanceParams& params) {
  return dtw(p, q, params, params.abandon_above);
}

double dtw(std::span<const double> p, std::span<const double> q,
           const DistanceParams& params, double abandon_above) {
  const std::size_t m = p.size();
  const std::size_t n = q.size();
  if (m == 0 || n == 0) {
    throw std::invalid_argument("dtw: empty sequence");
  }
  // Two rolling rows, reused across calls.  Cells outside a row's band stay
  // +inf without a per-row reset: a row writes [lo - 1, hi], and since the
  // band ends never move left, no later row reads a cell its buffer held
  // two rows earlier that this row did not rewrite.
  thread_local std::vector<double> rows;
  rows.assign(2 * (n + 1), kInf);
  double* prev = rows.data();
  double* cur = prev + n + 1;
  prev[0] = 0.0;
  const double* w = params.pair_weights ? params.pair_weights->data() : nullptr;
  std::size_t lo = 1;
  std::size_t hi = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    // A row with no in-band cell makes every later cell, and the result,
    // +inf.
    if (!band_row(params, i, m, n, lo, hi)) return kInf;
    cur[lo - 1] = kInf;
    const double pi = p[i - 1];
    for (std::size_t j = lo; j <= hi; ++j) {
      const double best = std::min({cur[j - 1], prev[j], prev[j - 1]});
      const double wij = w != nullptr ? w[(i - 1) * n + j - 1] : 1.0;
      cur[j] = best == kInf ? kInf : wij * std::abs(pi - q[j - 1]) + best;
    }
    if (abandon_above < kInf) {
      // Early abandon (admissible; see DistanceParams::abandon_above): the
      // row minimum lower-bounds every path through this row.
      double row_min = kInf;
      for (std::size_t j = lo; j <= hi; ++j) {
        row_min = std::min(row_min, cur[j]);
      }
      if (row_min > abandon_above) return kInf;
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

std::vector<double> dtw_matrix(std::span<const double> p,
                               std::span<const double> q,
                               const DistanceParams& params) {
  const std::size_t m = p.size();
  const std::size_t n = q.size();
  std::vector<double> d((m + 1) * (n + 1), kInf);
  d[0] = 0.0;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      if (!params.in_band(i, j, m, n)) continue;
      const double best =
          std::min({d[i * (n + 1) + j - 1], d[(i - 1) * (n + 1) + j],
                    d[(i - 1) * (n + 1) + j - 1]});
      if (best == kInf) continue;
      const double cost =
          params.w(i - 1, j - 1, n) * std::abs(p[i - 1] - q[j - 1]);
      d[i * (n + 1) + j] = cost + best;
    }
  }
  return d;
}

std::vector<std::pair<std::size_t, std::size_t>> dtw_path(
    std::span<const double> p, std::span<const double> q,
    const DistanceParams& params) {
  const std::size_t m = p.size();
  const std::size_t n = q.size();
  const std::vector<double> d = dtw_matrix(p, q, params);
  auto at = [&](std::size_t i, std::size_t j) { return d[i * (n + 1) + j]; };
  std::vector<std::pair<std::size_t, std::size_t>> path;
  std::size_t i = m, j = n;
  while (i > 0 && j > 0) {
    path.emplace_back(i, j);
    const double diag = at(i - 1, j - 1);
    const double up = at(i - 1, j);
    const double left = at(i, j - 1);
    if (diag <= up && diag <= left) {
      --i;
      --j;
    } else if (up <= left) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace mda::dist
