#pragma once
// Manhattan distance (Equation (7)): sum of weighted absolute differences at
// corresponding positions.  Sequences must have equal length.

#include <span>

#include "distance/params.hpp"

namespace mda::dist {

double manhattan(std::span<const double> p, std::span<const double> q,
                 const DistanceParams& params = {});

/// manhattan() under the early-abandon cutoff `abandon_above` in place of
/// params.abandon_above: +inf once the running sum exceeds it.
double manhattan(std::span<const double> p, std::span<const double> q,
                 const DistanceParams& params, double abandon_above);

}  // namespace mda::dist
