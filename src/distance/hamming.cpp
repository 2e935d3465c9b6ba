#include "distance/hamming.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace mda::dist {

double hamming(std::span<const double> p, std::span<const double> q,
               const DistanceParams& params) {
  return hamming(p, q, params, params.abandon_above);
}

double hamming(std::span<const double> p, std::span<const double> q,
               const DistanceParams& params, double abandon_above) {
  if (p.size() != q.size()) {
    throw std::invalid_argument("hamming: sequences must have equal length");
  }
  double h = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (std::abs(p[i] - q[i]) > params.threshold) {
      h += params.w(i) * params.vstep;
    }
    if (h > abandon_above) return std::numeric_limits<double>::infinity();
  }
  return h;
}

std::size_t hamming_bits(const std::vector<bool>& a,
                         const std::vector<bool>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("hamming_bits: size mismatch");
  }
  std::size_t count = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    count += a[i] != b[i] ? 1 : 0;
  }
  return count;
}

}  // namespace mda::dist
