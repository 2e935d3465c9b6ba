#pragma once
// Matrix-profile engine (DESIGN.md §15) — the data-center time-series
// workload of Fernandez et al. ("Accelerating Time Series Analysis via
// Processing using Non-Volatile Memories", PAPERS.md): for every length-m
// window of a series, the distance to (and index of) its nearest
// non-trivially-matching neighbour.  Motifs are the profile minima, discords
// (anomalies) the maxima, so one profile opens motif/discord/anomaly
// detection as first-class scenarios.
//
// The engine is the paper's deployment shape: a digital front end (the
// LB_Kim -> LB_Keogh cascade for DTW, and an exact early abandon for every
// kind with a running bound) filters candidate pairs cheaply, and the
// surviving distance evaluations are absorbed either by the digital
// reference kernels or by the accelerator through the unified
// core::QueryRequest path (Accelerator::try_compute, one pair at a time).
// A join is split into kStripes fixed diagonal stripes, each pruning
// against its own live bests, merged at the end.
//
// Determinism contracts (pinned by tests/test_matrix_profile.cpp):
//  * profile values and neighbour indices are BIT-identical for any
//    BatchEngine thread count and without an engine, and so are the
//    cascade statistics: the same stripes run either way;
//  * nearest-neighbour ties break to the LOWEST window index, so results
//    are independent of pair enumeration order and stdlib internals;
//  * StreamingProfile (incremental, per-appended-point updates) produces
//    the profile matrix_profile() would compute on the same series, bitwise
//    (streaming ≡ batch).
// Pruning preserves these contracts because it is strict: a candidate is
// dropped only when a bound proves its distance STRICTLY exceeds a best
// its row already holds, so no dropped candidate could have improved or
// tied the profile.
// With an accelerator kernel the bounds hold for the digital reference, not
// the analog value; lb_margin widens the prune threshold to cover the
// analog error, exactly as in SearchConfig.

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/accelerator.hpp"
#include "data/series.hpp"
#include "distance/lower_bounds.hpp"
#include "mining/motifs.hpp"

namespace mda::mining {

/// Neighbour sentinel: no admissible candidate for the window.
inline constexpr std::size_t kNoNeighbor =
    std::numeric_limits<std::size_t>::max();

/// Diagonal stripes of a join (DESIGN.md §15): pair (i, j) belongs to stripe
/// (j - i) mod kStripes, and dtw_subsequence_search's window at position
/// pos to stripe pos mod kStripes.  Fixed, never derived from a thread
/// count, so the cascade statistics depend on it alone.
inline constexpr std::size_t kStripes = 8;

struct ProfileConfig {
  std::size_t window = 32;
  /// Self-join trivial-match exclusion zone (start-offset distance below
  /// which a pair is ignored); 0 = one window length, the MotifConfig
  /// convention.  Ignored by AB-joins.
  std::size_t exclusion = 0;
  bool znormalize = true;

  /// Distance kernel, in precedence order:
  ///  1. `fn` when set — any callable (assumed symmetric for self-joins);
  ///  2. `accelerator` when set — every surviving pair becomes a
  ///     core::QueryRequest pinned to (kind, params.threshold, params.band),
  ///     evaluated through Accelerator::try_compute, concurrently from the
  ///     engine's threads when there is one;
  ///  3. the digital reference dist::compute(kind, ...) otherwise.
  DistanceFn fn;
  dist::DistanceKind kind = dist::DistanceKind::Dtw;
  dist::DistanceParams params;
  const core::Accelerator* accelerator = nullptr;  ///< Not owned.

  /// LB_Kim -> LB_Keogh cascade.  Applied only when the kernel is DTW and no
  /// pair weight is below 1 (the bounds are admissible for our
  /// absolute-difference DTW, and weights >= 1 only raise it); LB_Keogh runs
  /// only when the band makes the envelope narrower than the window
  /// (profile_bounds).  Self-joins use max(LB(p, env_q), LB(q, env_p)) per
  /// pair.
  bool use_lower_bounds = true;
  /// Prune safety margin for analog kernels (>= 1.0): a candidate is
  /// dropped only when lb > best * lb_margin.
  double lb_margin = 1.0;
  /// Early abandon for the digital kernel (DistanceParams::abandon_above):
  /// DTW, EdD, HauD, HamD and MD stop once their running bound exceeds the
  /// pair's cutoff.  Applied only while the weights and vstep the kind
  /// reads are nonnegative (HauD: always — a running max never falls);
  /// never to LCS, custom or accelerator kernels.
  bool early_abandon = true;

  /// Optional batch engine: the kStripes stripes run as its tasks, and
  /// inline without one.  Within a stripe every pair prunes against the
  /// stripe's live bests, and digital survivors evaluate dist::kMaxLanes
  /// pairs per dist::compute_lanes call, one pair per SIMD lane.  Profile
  /// and statistics are the same with and without an engine.
  const core::BatchEngine* engine = nullptr;

  /// StreamingProfile only: maximum points retained (sliding window over
  /// the stream); 0 = unbounded.  Must be >= window when set.
  std::size_t stream_capacity = 0;
};

/// The pruning stages a profile under a given config runs (DESIGN.md §15).
struct ProfileBounds {
  bool lb_kim = false;
  bool lb_keogh = false;
  bool early_abandon = false;
};

/// Which of the configured bounds apply to `cfg`'s kernel.
ProfileBounds profile_bounds(const ProfileConfig& cfg);

/// Cascade statistics.  Every admissible pair lands in exactly one bucket:
/// pruned by a bound, abandoned mid-kernel, or fully evaluated.
struct ProfileStats {
  std::size_t pairs = 0;
  std::size_t pruned_lb_kim = 0;
  std::size_t pruned_lb_keogh = 0;
  std::size_t abandoned = 0;
  std::size_t evaluated = 0;
};

struct ProfileResult {
  std::size_t window = 0;
  std::size_t exclusion = 0;  ///< Resolved zone (0 for AB-joins).
  bool similarity = false;    ///< Kernel polarity (LCS: larger = nearer).
  std::vector<std::size_t> starts;    ///< Window start offsets (stride 1).
  /// P[i]: distance to window i's nearest admissible neighbour (+inf — or
  /// -inf for similarity kernels — when none exists).
  std::vector<double> profile;
  /// I[i]: that neighbour's window index (kNoNeighbor when none); for
  /// AB-joins, an index into the second series' windows.
  std::vector<std::size_t> neighbor;
  ProfileStats stats;
};

/// Self-join matrix profile of `series` (kStripes diagonal stripes, each
/// walked STOMP-style, diagonal-major; symmetric kernels evaluate each
/// unordered pair once and update both rows, while the directed Hausdorff
/// evaluates both orientations).
ProfileResult matrix_profile(const data::Series& series,
                             ProfileConfig cfg = {});

/// AB-join: profile of `a`'s windows over nearest neighbours among `b`'s
/// windows (no exclusion zone — cross-series matches are never trivial);
/// stripe s holds the pairs with (j - i) mod kStripes == s, row-major.
ProfileResult matrix_profile_join(const data::Series& a, const data::Series& b,
                                  ProfileConfig cfg = {});

/// Top motif from a self-join profile: the window pair achieving the best
/// profile value (ties: lowest window index), as a MotifResult with
/// first < second.
MotifResult profile_motif(const ProfileResult& r);

/// Top-k discords from a self-join profile: windows ranked most anomalous
/// first (largest profile value — smallest for similarity kernels; ties by
/// position), mutually separated by the profile's exclusion zone.  Windows
/// without an admissible neighbour are skipped, matching find_discords.
std::vector<Discord> profile_discords(const ProfileResult& r, std::size_t k);

/// Incremental self-join profile over an appended stream: each new point
/// creates (at most) one new window, whose candidate scan updates the new
/// row and improves existing rows — no full recompute.  With
/// ProfileConfig::stream_capacity set, the oldest point retires per
/// overflowing append; rows whose nearest neighbour retired are rebuilt by
/// a fresh scan.  Contract: profile() equals matrix_profile(series(), cfg)
/// bitwise (values, neighbours, starts — statistics are trajectory-bound
/// and exempt).  Each candidate scan is one run of the join's pair loop,
/// serial and against the live profile; cfg.engine is ignored.
class StreamingProfile {
 public:
  explicit StreamingProfile(ProfileConfig cfg);

  void append(double value);
  void append(std::span<const double> values);

  /// Retained raw points (the sliding window of the stream).
  [[nodiscard]] const data::Series& series() const { return raw_; }
  /// Points evicted so far; series()[i] is stream element offset() + i.
  [[nodiscard]] std::size_t offset() const { return evicted_; }
  /// Snapshot of the current profile, indexed relative to series().
  [[nodiscard]] ProfileResult profile() const;

 private:
  void add_window();
  void evict_front();
  void rebuild_row(std::size_t i);

  ProfileConfig cfg_;
  ProfileBounds bounds_;      ///< profile_bounds(cfg_), resolved once.
  data::Series raw_;          ///< Retained points.
  std::size_t evicted_ = 0;   ///< Points dropped off the front.
  // Per retained window (index base: first retained window).
  std::vector<data::Series> windows_;
  std::vector<dist::Envelope> envelopes_;
  std::vector<double> best_;
  std::vector<std::size_t> nn_;  ///< Retained window index or kNoNeighbor.
  ProfileStats stats_;
};

}  // namespace mda::mining
