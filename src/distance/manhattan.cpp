#include "distance/manhattan.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace mda::dist {

double manhattan(std::span<const double> p, std::span<const double> q,
                 const DistanceParams& params) {
  return manhattan(p, q, params, params.abandon_above);
}

double manhattan(std::span<const double> p, std::span<const double> q,
                 const DistanceParams& params, double abandon_above) {
  if (p.size() != q.size()) {
    throw std::invalid_argument("manhattan: sequences must have equal length");
  }
  double d = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    d += params.w(i) * std::abs(p[i] - q[i]);
    if (d > abandon_above) return std::numeric_limits<double>::infinity();
  }
  return d;
}

}  // namespace mda::dist
