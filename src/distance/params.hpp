#pragma once
// Shared parameter block for the six distance functions of Sec. 2.
//
// Weighted variants: DTW/LCS/EdD/HauD take a pairwise weight matrix w_ij
// (row-major, |P| x |Q|); HamD/MD take a per-element weight vector w_i.
// All weights default to 1, matching the paper's evaluation setup.

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace mda::dist {

struct DistanceParams {
  /// Sakoe-Chiba band radius for DTW, in elements; < 0 disables the band.
  /// The paper's power analysis uses R = 5% * n.
  int band = -1;

  /// Equality threshold for LCS / EdD / HamD: elements are "equal" when
  /// |Pi - Qj| <= threshold (Sec. 2).
  double threshold = 0.0;

  /// Unit contribution Vstep for counting distances (LCS / EdD / HamD).
  /// Digital references use 1.0 so results are in counts; the accelerator
  /// uses 10 mV (Sec. 4.1) and divides out on readback.
  double vstep = 1.0;

  /// Optional pairwise weights w_ij, row-major with |P| rows, |Q| columns.
  /// Owned: a params value carries its weights, so no caller-side lifetime
  /// management is needed.
  std::optional<std::vector<double>> pair_weights;

  /// Optional per-element weights w_i (length = series length).  Owned.
  std::optional<std::vector<double>> elem_weights;

  /// Early-abandon cutoff (matrix-profile front end, DESIGN.md §15): when
  /// finite, a kernel returns +inf as soon as its running bound exceeds this
  /// value — DTW and EdD the minimum of a completed DP row, HauD its running
  /// max over columns, HamD and MD their running sum.  Each bound never
  /// falls while every weight (and vstep) is >= 0, so it then proves the
  /// final distance exceeds the cutoff.  LCS, a similarity, ignores it.  The
  /// default (+inf) never triggers and leaves results bit-identical to the
  /// unconditional computation.
  double abandon_above = std::numeric_limits<double>::infinity();

  [[nodiscard]] double w(std::size_t i, std::size_t j, std::size_t cols) const {
    return pair_weights ? (*pair_weights)[i * cols + j] : 1.0;
  }
  [[nodiscard]] double w(std::size_t i) const {
    return elem_weights ? (*elem_weights)[i] : 1.0;
  }

  /// True if row i / column j is inside the Sakoe-Chiba band (1-based DP
  /// indices over an m x n grid, band scaled for unequal lengths).
  [[nodiscard]] bool in_band(std::size_t i, std::size_t j, std::size_t m,
                             std::size_t n) const;
};

}  // namespace mda::dist
