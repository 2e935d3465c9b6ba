#include "distance/edit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mda::dist {

double edit_distance(std::span<const double> p, std::span<const double> q,
                     const DistanceParams& params) {
  return edit_distance(p, q, params, params.abandon_above);
}

double edit_distance(std::span<const double> p, std::span<const double> q,
                     const DistanceParams& params, double abandon_above) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t m = p.size();
  const std::size_t n = q.size();
  // Two rolling rows, reused across calls; every row rewrites all cells.
  thread_local std::vector<double> rows;
  rows.resize(2 * (n + 1));
  double* prev = rows.data();
  double* cur = prev + n + 1;
  const double* w = params.pair_weights ? params.pair_weights->data() : nullptr;
  for (std::size_t j = 0; j <= n; ++j) {
    prev[j] = static_cast<double>(j) * params.vstep;
  }
  for (std::size_t i = 1; i <= m; ++i) {
    cur[0] = static_cast<double>(i) * params.vstep;
    const double pi = p[i - 1];
    for (std::size_t j = 1; j <= n; ++j) {
      const double wij =
          (w != nullptr ? w[(i - 1) * n + j - 1] : 1.0) * params.vstep;
      const double del = prev[j] + wij;
      const double ins = cur[j - 1] + wij;
      const bool equal = std::abs(pi - q[j - 1]) <= params.threshold;
      const double sub = prev[j - 1] + (equal ? 0.0 : wij);
      cur[j] = std::min({del, ins, sub});
    }
    if (abandon_above < kInf) {
      // Every path crosses row i (column 0 included) and no step lowers
      // its cost, so the row minimum bounds the final distance from below.
      double row_min = cur[0];
      for (std::size_t j = 1; j <= n; ++j) row_min = std::min(row_min, cur[j]);
      if (row_min > abandon_above) return kInf;
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

std::vector<double> edit_matrix(std::span<const double> p,
                                std::span<const double> q,
                                const DistanceParams& params) {
  const std::size_t m = p.size();
  const std::size_t n = q.size();
  std::vector<double> e((m + 1) * (n + 1), 0.0);
  for (std::size_t j = 0; j <= n; ++j) {
    e[j] = static_cast<double>(j) * params.vstep;
  }
  for (std::size_t i = 1; i <= m; ++i) {
    e[i * (n + 1)] = static_cast<double>(i) * params.vstep;
    for (std::size_t j = 1; j <= n; ++j) {
      const double w = params.w(i - 1, j - 1, n) * params.vstep;
      const double del = e[(i - 1) * (n + 1) + j] + w;
      const double ins = e[i * (n + 1) + j - 1] + w;
      const bool equal = std::abs(p[i - 1] - q[j - 1]) <= params.threshold;
      const double sub = e[(i - 1) * (n + 1) + j - 1] + (equal ? 0.0 : w);
      e[i * (n + 1) + j] = std::min({del, ins, sub});
    }
  }
  return e;
}

std::size_t levenshtein(std::span<const int> a, std::span<const int> b) {
  std::vector<double> pa(a.begin(), a.end());
  std::vector<double> pb(b.begin(), b.end());
  DistanceParams params;
  params.threshold = 0.5;
  return static_cast<std::size_t>(std::lround(edit_distance(pa, pb, params)));
}

}  // namespace mda::dist
