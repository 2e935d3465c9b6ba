#pragma once
// Execution backends.
//
// Three fidelity levels evaluate the same generated circuits (DESIGN.md §3):
//
//  * FullSpice   — one transient simulation of the complete PE array; yields
//                  both the output value and the true convergence time.
//                  Tractable for small arrays; used for validation and for
//                  calibrating the timing model.
//  * Wavefront   — cell-by-cell nonlinear DC solves of a single-PE circuit,
//                  feeding each PE's *measured* analog output forward along
//                  the DP wavefront, so circuit nonidealities accumulate
//                  exactly as in the full array.  Scales to length 40+.
//  * Behavioral  — closed-form evaluation with per-stage gain/offset models
//                  calibrated against SPICE; scales to the 128x128 array of
//                  the power analysis.
//
// All backends speak volts; encode/decode handle the value<->voltage codec,
// range compression and DAC quantisation.

#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace mda::core {

/// Voltage-encoded inputs plus the scaling bookkeeping needed to decode.
struct EncodedInputs {
  std::vector<double> p_volts;
  std::vector<double> q_volts;
  double scale = 1.0;       ///< Range-compression factor applied to values.
  double vstep_eff = 0.01;  ///< Effective Vstep used (may shrink for long n).
};

/// Encode values to voltages: apply the resolution, compress the range so
/// worst-case DP voltages stay below config.v_max, and apply DAC
/// quantisation if configured.
EncodedInputs encode_inputs(const AcceleratorConfig& config,
                            const DistanceSpec& spec,
                            std::span<const double> p,
                            std::span<const double> q);

/// Decode the analog output voltage back to value units.
double decode_output(const AcceleratorConfig& config, const DistanceSpec& spec,
                     double volts, const EncodedInputs& enc);

/// Result of one backend evaluation (volts domain).
struct AnalogEval {
  bool ok = false;
  std::string error;
  double out_volts = 0.0;
  /// Measured settling time (FullSpice only; 0 when not measured).
  double convergence_time_s = 0.0;
  /// Newton iterations spent (SPICE backends; 0 for behavioral), including
  /// every gmin/source-stepping homotopy stage.
  long newton_iterations = 0;
  /// Solve points that needed a gmin/source-stepping fallback to converge —
  /// near-failures even when the evaluation succeeded (DESIGN.md §10).
  long solver_fallbacks = 0;
  /// DP cells quarantined by the wavefront residual check (DESIGN.md §9).
  std::size_t quarantined_cells = 0;
  /// True when a detector tripped during the evaluation (even if recovered).
  bool fault_detected = false;
};

/// Whole-array transient evaluation over default_t_stop()'s horizon.
/// `config.env` supplies device models.
AnalogEval eval_full_spice(const AcceleratorConfig& config,
                           const DistanceSpec& spec, const EncodedInputs& enc);

/// Wavefront evaluation (values only).
AnalogEval eval_wavefront(const AcceleratorConfig& config,
                          const DistanceSpec& spec, const EncodedInputs& enc);

/// Behavioral evaluation (values only).
AnalogEval eval_behavioral(const AcceleratorConfig& config,
                           const DistanceSpec& spec, const EncodedInputs& enc);

/// Heuristic transient horizon for an n-element array of the given kind.
double default_t_stop(dist::DistanceKind kind, std::size_t m, std::size_t n);

/// Single dispatch point over the three fidelity levels: evaluates `enc`
/// through the selected backend.  The per-backend functions above remain
/// for direct use by calibration and tests; library code routes through
/// here.
AnalogEval evaluate(Backend backend, const AcceleratorConfig& config,
                    const DistanceSpec& spec, const EncodedInputs& enc);

/// evaluate(Backend::FullSpice, config, spec, encs[i]) for every i, in
/// order.  Exists only for the benchmark runner's replay of
/// Accelerator::try_compute_lockstep.
std::vector<AnalogEval> eval_full_spice_batch(const AcceleratorConfig& config,
                                              const DistanceSpec& spec,
                                              std::span<const EncodedInputs> encs);

}  // namespace mda::core
