#pragma once
// Dynamic time warping (Equation (2)):
//   D[i][j] = w_ij * |P_i - Q_j| + min(D[i][j-1], D[i-1][j], D[i-1][j-1])
// with D[0][0] = 0 and infinite borders; DTW(P,Q) = D[m][n].
// Smaller values mean higher similarity.  Supports the Sakoe-Chiba band and
// weighted DTW (Jeong et al.).

#include <span>
#include <vector>

#include "distance/params.hpp"

namespace mda::dist {

/// DTW distance, O(min-memory) rolling computation.
double dtw(std::span<const double> p, std::span<const double> q,
           const DistanceParams& params = {});

/// dtw() under the early-abandon cutoff `abandon_above` in place of
/// params.abandon_above (per-pair cutoffs without copying the params).
double dtw(std::span<const double> p, std::span<const double> q,
           const DistanceParams& params, double abandon_above);

/// Band of DP row i (1-based) of an m x n grid as the column range
/// [lo, hi], decided by DistanceParams::in_band.  Call for i = 1, 2, ...
/// with lo = 1, hi = 0 before the first row; each call advances the range
/// from the previous row's.  Returns false when row i has no in-band
/// column, which makes the DTW distance +inf.
bool band_row(const DistanceParams& params, std::size_t i, std::size_t m,
              std::size_t n, std::size_t& lo, std::size_t& hi);

/// Full cumulative-distance matrix ((m+1) x (n+1), row-major) for tests and
/// for cross-checking the analog array cell by cell.
std::vector<double> dtw_matrix(std::span<const double> p,
                               std::span<const double> q,
                               const DistanceParams& params = {});

/// Optimal warping path as (i, j) pairs (1-based DP indices), recovered by
/// backtracking the full matrix.
std::vector<std::pair<std::size_t, std::size_t>> dtw_path(
    std::span<const double> p, std::span<const double> q,
    const DistanceParams& params = {});

}  // namespace mda::dist
