#include "distance/hausdorff.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mda::dist {

double hausdorff_directed(std::span<const double> p, std::span<const double> q,
                          const DistanceParams& params) {
  return hausdorff_directed(p, q, params, params.abandon_above);
}

double hausdorff_directed(std::span<const double> p, std::span<const double> q,
                          const DistanceParams& params, double abandon_above) {
  if (p.empty() || q.empty()) {
    throw std::invalid_argument("hausdorff: empty sequence");
  }
  const std::size_t n = q.size();
  double worst = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < p.size(); ++i) {
      best = std::min(best, params.w(i, j, n) * std::abs(p[i] - q[j]));
    }
    worst = std::max(worst, best);
    if (worst > abandon_above) return std::numeric_limits<double>::infinity();
  }
  return worst;
}

double hausdorff(std::span<const double> p, std::span<const double> q,
                 const DistanceParams& params) {
  // The transposed direction indexes weights with swapped roles; for the
  // default unit weights this is symmetric usage of the same matrix.
  DistanceParams swapped = params;
  if (params.pair_weights) {
    const std::size_t m = p.size();
    const std::size_t n = q.size();
    std::vector<double> wt(m * n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        wt[j * m + i] = (*params.pair_weights)[i * n + j];
      }
    }
    swapped.pair_weights = std::move(wt);
  }
  return std::max(hausdorff_directed(p, q, params),
                  hausdorff_directed(q, p, swapped));
}

}  // namespace mda::dist
