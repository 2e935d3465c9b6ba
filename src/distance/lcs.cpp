#include "distance/lcs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mda::dist {

double lcs(std::span<const double> p, std::span<const double> q,
           const DistanceParams& params) {
  const std::size_t m = p.size();
  const std::size_t n = q.size();
  if (m == 0 || n == 0) return 0.0;
  // Two rolling rows, reused across calls; column 0 stays 0 and every row
  // rewrites the rest.
  thread_local std::vector<double> rows;
  rows.assign(2 * (n + 1), 0.0);
  double* prev = rows.data();
  double* cur = prev + n + 1;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      if (std::abs(p[i - 1] - q[j - 1]) <= params.threshold) {
        cur[j] = prev[j - 1] + params.w(i - 1, j - 1, n) * params.vstep;
      } else {
        cur[j] = std::max(cur[j - 1], prev[j]);
      }
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

std::vector<double> lcs_matrix(std::span<const double> p,
                               std::span<const double> q,
                               const DistanceParams& params) {
  const std::size_t m = p.size();
  const std::size_t n = q.size();
  std::vector<double> l((m + 1) * (n + 1), 0.0);
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      if (std::abs(p[i - 1] - q[j - 1]) <= params.threshold) {
        l[i * (n + 1) + j] = l[(i - 1) * (n + 1) + j - 1] +
                             params.w(i - 1, j - 1, n) * params.vstep;
      } else {
        l[i * (n + 1) + j] =
            std::max(l[i * (n + 1) + j - 1], l[(i - 1) * (n + 1) + j]);
      }
    }
  }
  return l;
}

std::size_t lcs_length(std::span<const int> a, std::span<const int> b) {
  std::vector<double> pa(a.begin(), a.end());
  std::vector<double> pb(b.begin(), b.end());
  DistanceParams params;
  params.threshold = 0.5;
  return static_cast<std::size_t>(std::lround(lcs(pa, pb, params)));
}

}  // namespace mda::dist
