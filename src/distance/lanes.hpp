#pragma once
// Lane-parallel evaluation of the digital distance kernels (DESIGN.md §15):
// up to kMaxLanes independent pairs of one shape run in lockstep, one pair
// per SIMD lane — AVX-512 with 8 lanes, AVX2 with 4, chosen at run time by
// util/cpu_dispatch.hpp, and a portable scalar fallback otherwise.
//
// Bit-identity contract: out[l] equals dist::compute(kind, p_l, q_l, params)
// with params.abandon_above replaced by the lane's own cutoff, bit for bit,
// on every input, ±inf included; a NaN result matches a NaN result (x86
// keeps the first operand's NaN payload, and the compiler may commute an
// addition in either kernel).  Each lane repeats the scalar kernel's
// per-cell arithmetic: std::min/std::max become MINPD/MAXPD or
// compare-and-select with the scalar semantics (NaN and tie cases
// included), there is no FMA contraction, weights are broadcast into the
// same w(i,j)·|p−q| product, DTW's band (a function of the shape only) is
// shared by all lanes, and HamD adds under a mask, never +0.0.  Each lane
// tests its cutoff at the scalar kernel's check points (every DP row for
// DTW and EdD, every column for HauD, every element for HamD) and keeps the
// verdict, so a lane abandons exactly when its scalar call does.  MD runs
// the scalar kernel per lane (DESIGN.md §15).

#include <cstddef>
#include <limits>
#include <span>

#include "distance/params.hpp"
#include "distance/registry.hpp"

namespace mda::dist {

/// Most pairs one compute_lanes call evaluates (doubles per AVX-512 vector).
inline constexpr std::size_t kMaxLanes = 8;

struct LanePair {
  std::span<const double> p;
  std::span<const double> q;
  /// This lane's early-abandon cutoff, with DistanceParams::abandon_above's
  /// meaning for every kind but LCS: the lane returns +inf once its running
  /// bound exceeds it, checked at the same points as the scalar kernel.
  double abandon_above = std::numeric_limits<double>::infinity();
};

/// Evaluates pairs.size() <= kMaxLanes pairs into out[0 .. pairs.size()).
/// All pairs must share one shape (every p one length, every q one length);
/// params.abandon_above is ignored in favour of each lane's cutoff.  Throws
/// std::invalid_argument on too many lanes, a short `out` or mixed shapes,
/// and whatever dist::compute throws on the pairs themselves.
void compute_lanes(DistanceKind kind, std::span<const LanePair> pairs,
                   const DistanceParams& params, std::span<double> out);

}  // namespace mda::dist
