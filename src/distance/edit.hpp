#pragma once
// Edit distance for time series (Equation (4)): number of replace / insert /
// delete operations to transform P into Q, with the threshold deciding
// element equality and each operation contributing w * Vstep.
//
// Note: the paper's Equation (4) swaps the two branch conditions (it charges
// the diagonal step when elements are EQUAL); that is a typo — we implement
// the standard semantics (free diagonal on a match), which is also what the
// PE circuit in Fig. 2(c) computes once the comparator polarity is read
// consistently with LCS.  DESIGN.md records the substitution.

#include <span>
#include <vector>

#include "distance/params.hpp"

namespace mda::dist {

/// Edit distance E[m][n] (in units of Vstep; counts when vstep == 1).
double edit_distance(std::span<const double> p, std::span<const double> q,
                     const DistanceParams& params = {});

/// edit_distance() under the early-abandon cutoff `abandon_above` in place
/// of params.abandon_above: +inf once a completed DP row's minimum exceeds
/// it.
double edit_distance(std::span<const double> p, std::span<const double> q,
                     const DistanceParams& params, double abandon_above);

/// Full DP matrix ((m+1) x (n+1), row-major).
std::vector<double> edit_matrix(std::span<const double> p,
                                std::span<const double> q,
                                const DistanceParams& params = {});

/// Classic Levenshtein distance between two symbol strings.
std::size_t levenshtein(std::span<const int> a, std::span<const int> b);

}  // namespace mda::dist
