#pragma once
// Hausdorff distance (Equation (5)).  The PE connection of Fig. 2(d2)
// computes the DIRECTED Hausdorff distance
//   h(Q, P) = max_j min_i w_ij * |P_i - Q_j|
// (for each Q_j, find the closest P_i; take the worst case).  The symmetric
// Hausdorff distance is max(h(P,Q), h(Q,P)); the accelerator obtains it by
// running the directed configuration twice with the operands swapped.

#include <span>

#include "distance/params.hpp"

namespace mda::dist {

/// Directed Hausdorff h(Q,P) = max over Q_j of the min over P_i of
/// w_ij * |P_i - Q_j| — the quantity the circuit of Fig. 2(d2) outputs.
double hausdorff_directed(std::span<const double> p, std::span<const double> q,
                          const DistanceParams& params = {});

/// hausdorff_directed() under the early-abandon cutoff `abandon_above` in
/// place of params.abandon_above: +inf once the running max over columns
/// exceeds it.
double hausdorff_directed(std::span<const double> p, std::span<const double> q,
                          const DistanceParams& params, double abandon_above);

/// Symmetric Hausdorff distance max(h(P,Q), h(Q,P)).
double hausdorff(std::span<const double> p, std::span<const double> q,
                 const DistanceParams& params = {});

}  // namespace mda::dist
