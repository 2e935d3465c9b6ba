#pragma once
// Uniform dispatch over the six distance functions.  The accelerator's
// control/configuration module, the mining substrate and the benches all
// address distance functions by DistanceKind.

#include <span>
#include <string>

#include "distance/params.hpp"

namespace mda::dist {

enum class DistanceKind { Dtw, Lcs, Edit, Hausdorff, Hamming, Manhattan };

/// All six kinds, in the paper's presentation order.
inline constexpr DistanceKind kAllKinds[] = {
    DistanceKind::Dtw,      DistanceKind::Lcs,     DistanceKind::Edit,
    DistanceKind::Hausdorff, DistanceKind::Hamming, DistanceKind::Manhattan};

/// Short name as used in the paper ("DTW", "LCS", "EdD", "HauD", "HamD",
/// "MD").
std::string kind_name(DistanceKind kind);

/// Parse a short name (case-insensitive); throws std::invalid_argument.
DistanceKind kind_from_name(const std::string& name);

/// True if larger values mean higher similarity (only LCS).
bool is_similarity(DistanceKind kind);

/// True for the matrix-structure functions (DTW/LCS/EdD/HauD); false for
/// the row-structure ones (HamD/MD), mirroring Fig. 1.
bool is_matrix_structure(DistanceKind kind);

/// True if the function requires equal-length sequences (HamD/MD).
bool requires_equal_length(DistanceKind kind);

/// Asymptotic work per distance evaluation: 2 for O(m*n), 1 for O(n).
int complexity_order(DistanceKind kind);

/// Evaluate the digital reference implementation.
double compute(DistanceKind kind, std::span<const double> p,
               std::span<const double> q, const DistanceParams& params = {});

/// compute() under the early-abandon cutoff `abandon_above` in place of
/// params.abandon_above (per-pair cutoffs without copying the params, which
/// own their weights).  LCS ignores it.
double compute(DistanceKind kind, std::span<const double> p,
               std::span<const double> q, const DistanceParams& params,
               double abandon_above);

}  // namespace mda::dist
