#pragma once
// DTW subsequence similarity search with the lower-bound cascade of
// Rakthanmanon et al. (the paper's reference [24], whose measurement that
// "the distance function takes more than 99% of the runtime" motivates the
// whole accelerator).  Cascade: LB_Kim -> LB_Keogh -> banded DTW with a
// running best-so-far per stripe — the matrix profile's diagonal-stripe
// rule applied to window positions.  The windows are built on the fly,
// one per position: routing the search through matrix_profile_join would
// need an O(n·m) window table plus haystack envelopes, and would turn
// dtw_override into a custom kernel, which switches the cascade off.

#include <cstddef>
#include <span>

#include "data/series.hpp"
#include "mining/knn.hpp"

namespace mda::mining {

struct SearchConfig {
  int band = -1;             ///< Sakoe-Chiba radius for the final DTW.
  bool znormalize = true;    ///< Z-normalise each candidate window.
  bool use_lower_bounds = true;

  /// Optional override for the full-DTW stage — e.g. an accelerator-backed
  /// callable, which is the paper's deployment: digital lower bounds filter
  /// cheaply, the analog fabric absorbs the surviving evaluations.
  DistanceFn dtw_override;
  /// Pruning safety margin when the override's result carries analog error:
  /// a window is pruned only when lb >= best * lb_margin (>= 1.0).
  double lb_margin = 1.0;

  /// Optional batch engine.  Window positions split into kStripes fixed
  /// stripes (pos mod kStripes, matrix_profile.hpp), each scanned in
  /// ascending order against its own live best-so-far; the stripes run as
  /// the engine's tasks, inline without one, and merge by (distance, lowest
  /// position).  Result and cascade statistics are the same with and
  /// without an engine, at any num_threads.
  const core::BatchEngine* engine = nullptr;
};

struct SearchResult {
  std::size_t position = 0;   ///< Start index of the best window.
  double distance = 0.0;      ///< DTW distance of the best window.
  // Cascade statistics (how much work the bounds pruned).
  std::size_t windows = 0;
  std::size_t pruned_lb_kim = 0;
  std::size_t pruned_lb_keogh = 0;
  std::size_t full_dtw_evals = 0;
};

/// Find the window of `haystack` (length = |needle|) with the smallest DTW
/// distance to `needle`.
SearchResult dtw_subsequence_search(std::span<const double> haystack,
                                    std::span<const double> needle,
                                    SearchConfig cfg = {});

}  // namespace mda::mining
