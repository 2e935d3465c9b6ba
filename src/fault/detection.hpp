#pragma once
// Fault detection primitives (DESIGN.md §9).
//
// Three independent detectors:
//  * envelope checks (always on) — every analog output must land inside the
//    physical range of the computation module ([0, v_max] widened by
//    kEnvelopeMargin); rail faults and stuck codes land far outside it;
//  * per-cell residual checks (always on) — the wavefront backend compares
//    each solved DP cell against the ideal volts-domain recurrence of its
//    distance kind; a cell whose residual exceeds kCellResidualTolV, or that
//    does not converge, is quarantined and replaced by the prediction, so a
//    dead PE degrades accuracy gracefully instead of poisoning every
//    downstream cell;
//  * Newton/transient watchdogs (off unless FaultHandling::newton_budget
//    > 0) — an iteration budget for the SPICE backends; runaway solves are
//    treated as faults instead of hanging the batch engine.
//
// This header is deliberately core-free (primitive types only) so the
// fault library sits below src/core in the layering.

#include <algorithm>
#include <optional>
#include <string>

namespace mda::fault {

/// Closed voltage interval a healthy analog output must fall inside.
struct Envelope {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] bool contains(double v) const { return v >= lo && v <= hi; }
};

/// Relative widening of [0, v_max] that a healthy output may reach.
inline constexpr double kEnvelopeMargin = 0.10;

/// Absolute per-cell residual budget [V] of the wavefront backend.
inline constexpr double kCellResidualTolV = 0.05;

/// Envelope for a computation module with full-scale output `v_max`,
/// widened by `margin` (relative) on both sides.
[[nodiscard]] Envelope envelope_for(double v_max, double margin);

/// Check `volts` against the envelope.  Returns a diagnostic message when
/// the check trips (and bumps mda.fault.envelope_trips), nullopt when the
/// value is in range.
std::optional<std::string> check_envelope(double volts, const Envelope& env);

/// True when `measured` deviates from `predicted` by more than `tol`
/// (absolute, volts).  Bumps mda.fault.residual_trips when it does.
bool residual_exceeds(double measured, double predicted, double tol);

/// True when a Newton/transient iteration count blew through its budget
/// (budget <= 0 disables).  Bumps mda.fault.watchdog_trips when it does.
bool watchdog_tripped(long iterations, long budget);

// Ideal volts-domain DP recurrences, mirroring the behavioral backend's
// StageModels with ideal stages (infinite gain, zero offset).  `a` is the
// measured |p - q| stage output (weight already folded in by the abs
// block), `left`/`up`/`diag` the neighbouring cell outputs.

/// DTW: a + min(left, up, diag).
[[nodiscard]] inline double ideal_dtw_cell(double a, double left, double up,
                                           double diag) {
  return a + std::min({left, up, diag});
}

/// LCS: match ? diag + w*vstep : max(left, up).
[[nodiscard]] inline double ideal_lcs_cell(bool match, double left, double up,
                                           double diag, double w,
                                           double vstep) {
  return match ? diag + w * vstep : std::max(left, up);
}

/// Edit: min(match ? diag : diag + w*vstep, up + w*vstep, left + w*vstep).
[[nodiscard]] inline double ideal_edit_cell(bool match, double left, double up,
                                            double diag, double w,
                                            double vstep) {
  const double diag_sel = match ? diag : diag + w * vstep;
  return std::min({diag_sel, up + w * vstep, left + w * vstep});
}

}  // namespace mda::fault
