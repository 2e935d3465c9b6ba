#pragma once
// Hamming distance for time series (Equation (6)): count of positions whose
// elements differ by more than the threshold, each contributing w_i * Vstep.
// Sequences must have equal length.

#include <span>
#include <vector>

#include "distance/params.hpp"

namespace mda::dist {

/// Hamming distance H[n] (Vstep units).
double hamming(std::span<const double> p, std::span<const double> q,
               const DistanceParams& params = {});

/// hamming() under the early-abandon cutoff `abandon_above` in place of
/// params.abandon_above: +inf once the running sum exceeds it.
double hamming(std::span<const double> p, std::span<const double> q,
               const DistanceParams& params, double abandon_above);

/// Bit-string Hamming distance (iris-code style), for the authentication
/// example: fraction of differing bits is distance / size.
/// (Takes vectors: std::vector<bool> is bit-packed and has no span view.)
std::size_t hamming_bits(const std::vector<bool>& a,
                         const std::vector<bool>& b);

}  // namespace mda::dist
