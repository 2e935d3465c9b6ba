#pragma once
// Accelerator configuration types and the configuration library (Sec. 3.1:
// "the control and configuration module ... reconfigures circuit connections
// in the computation module to perform specific distance functions with the
// configuration lib").

#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "blocks/analog_env.hpp"
#include "distance/params.hpp"
#include "distance/registry.hpp"

namespace mda::fault {
class FaultPlan;
class HealthSink;
}  // namespace mda::fault

namespace mda::core {

class ArrayCache;

/// Execution backend selector (see backend.hpp for the fidelity
/// trade-offs).  Part of AcceleratorConfig since the backend is a property
/// of how an accelerator instance is operated, not of one compute() call.
enum class Backend { Behavioral, Wavefront, FullSpice };

/// Recovery policy for faulty computes (DESIGN.md §9).  Defaults give one
/// re-tuned retry per backend and a FullSpice -> Wavefront -> Behavioral
/// degradation chain starting at the configured backend.  The detectors
/// themselves (output envelope, per-cell residual) are always on; their
/// limits are constants in fault/detection.hpp.
struct FaultHandling {
  /// Extra attempts per backend after the first (0 = no retry).  Each retry
  /// re-tunes drifted devices with the Sec. 3.3 modulate/verify loop.
  int max_retries = 1;
  /// Fall through to lower-fidelity backends when retries are exhausted.
  bool degrade = true;
  /// Newton-iteration watchdog for the SPICE backends (0 = disabled).
  long newton_budget = 0;
};

/// Static accelerator build parameters (Table 1 plus array geometry).
struct AcceleratorConfig {
  std::size_t rows = 128;  ///< PEs per column (the paper matches [25]).
  std::size_t cols = 128;  ///< PEs per row.

  /// Voltage encoding: sequence value 1 <-> 20 mV (Sec. 4.1).
  double voltage_resolution = 0.02;
  /// Unit voltage Vstep = 10 mV (Sec. 4.1).
  double vstep = 0.01;
  /// Largest representable DP voltage; inputs are scaled to keep cumulative
  /// distances below this (matrix functions use Vcc/2 headroom).
  double v_max = 0.45;

  blocks::AnalogEnv env{};  ///< Device models and rails (Tables 1 & 2).

  int dac_bits = 8;   ///< Tseng et al. DAC (Sec. 4.3).
  int adc_bits = 8;   ///< Kull et al. ADC (Sec. 4.3).
  bool quantize_inputs = true;   ///< Apply DAC quantisation to inputs.
  bool quantize_outputs = false; ///< Apply ADC quantisation on readback.

  /// Backend used by Accelerator::compute()/try_compute().
  Backend backend = Backend::Wavefront;

  /// LRU capacity (distinct configurations) of the cross-query instance
  /// cache (DESIGN.md §11): wavefront DTW/LCS/EdD harnesses and HamD/MD row
  /// arrays are reset and reused between same-configuration queries
  /// instead of rebuilt.  FullSpice and HauD build per query regardless.
  /// 0 disables cross-query reuse (fresh build per query).
  std::size_t cache_capacity = 8;
  /// The instance cache itself.  Installed by the Accelerator constructor
  /// when cache_capacity > 0 (or pre-seeded by a campaign so per-query
  /// accelerators share one pool); shared so per-thread config copies reuse
  /// the same instances.
  std::shared_ptr<ArrayCache> array_cache;

  /// Optional fault-injection plan (nullptr = healthy hardware).  Shared so
  /// per-thread config copies observe the same deterministic plan.
  std::shared_ptr<const fault::FaultPlan> faults;
  /// Detection and recovery policy for compute()/try_compute().
  FaultHandling fault_handling{};
  /// Optional device-health sink (DESIGN.md §14): solve-time detector
  /// signals (quarantines, watchdog/envelope trips, per-query error) are
  /// recorded into it — a fault::HealthScoreboard a scrub scheduler reads,
  /// or a fault::HealthJournal replayed into one later.  nullptr (the
  /// default) records nothing and costs nothing.
  std::shared_ptr<fault::HealthSink> health;
  /// Internal: recovery attempt index of the current evaluation.  Attempts
  /// > 0 re-tune tunable faults.
  int fault_attempt = 0;
};

/// Per-computation distance configuration (value-domain units; the
/// accelerator converts to volts internally).
struct DistanceSpec {
  dist::DistanceKind kind = dist::DistanceKind::Dtw;
  double threshold = 0.0;  ///< LCS/EdD/HamD equality threshold (value units).
  int band = -1;           ///< DTW Sakoe-Chiba radius; <0 = unconstrained.
  /// Optional weights, OWNED by the spec (see dist::DistanceParams for the
  /// layout): pairwise w_ij row-major |P| x |Q| / per-element w_i.
  std::optional<std::vector<double>> pair_weights;
  std::optional<std::vector<double>> elem_weights;

  /// Equivalent digital-reference parameters in VALUE units (vstep = 1).
  [[nodiscard]] dist::DistanceParams reference_params() const;
};

/// Result of one accelerated distance computation.
struct ComputeResult {
  double value = 0.0;        ///< Distance in value units (Vstep divided out).
  double volts = 0.0;        ///< Raw analog output voltage.
  double reference = 0.0;    ///< Digital reference result (value units).
  double relative_error = 0.0;
  double convergence_time_s = 0.0;  ///< Modeled/measured settling time.
  double input_scale = 1.0;  ///< Applied range-compression factor.
  std::size_t tiles = 1;     ///< Tiling passes used (Sec. 3.1).

  // Fault-recovery provenance (DESIGN.md §9).
  Backend backend_used = Backend::Wavefront;  ///< Backend that produced value.
  int attempts = 1;        ///< Evaluation attempts across the whole chain.
  int fallbacks = 0;       ///< Degradation steps taken (0 = first backend).
  long newton_iterations = 0;        ///< Newton iterations (SPICE backends),
                                     ///< including all homotopy stages.
  long solver_fallbacks = 0;         ///< Solve points recovered only by a
                                     ///< gmin/source-stepping homotopy.
  std::size_t quarantined_cells = 0; ///< Wavefront cells quarantined.
  bool fault_detected = false;       ///< Any detector tripped on the way.
};

/// Why a computation could not produce a result.
enum class ComputeErrorCode {
  InvalidInput,    ///< Empty sequence / length mismatch for row kinds.
  BackendFailure,  ///< Simulation non-convergence or internal backend error.
};

struct ComputeError {
  ComputeErrorCode code = ComputeErrorCode::BackendFailure;
  std::string message;
  /// Backend that produced the final failure (BackendFailure only).
  Backend backend = Backend::Wavefront;
  /// Newton iterations spent by the failing evaluation (SPICE backends).
  long newton_iterations = 0;
  /// Total evaluation attempts before giving up.
  int attempts = 0;
};

/// Expected-style result of Accelerator::try_compute() for server callers
/// that must not unwind per failed query (C++20 stand-in for
/// std::expected<ComputeResult, ComputeError>).
class ComputeOutcome {
 public:
  /*implicit*/ ComputeOutcome(ComputeResult result)
      : result_(std::move(result)) {}
  /*implicit*/ ComputeOutcome(ComputeError error) : error_(std::move(error)) {}

  [[nodiscard]] bool ok() const { return result_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Valid only when ok() — checked in debug by the underlying optional.
  [[nodiscard]] const ComputeResult& value() const { return *result_; }
  [[nodiscard]] ComputeResult& value() { return *result_; }
  [[nodiscard]] const ComputeError& error() const { return *error_; }

  /// Return the result or throw — std::invalid_argument for InvalidInput,
  /// std::runtime_error otherwise.  The bridge for callers that prefer
  /// unwinding: `acc.try_compute(p, q).unwrap()`.
  [[nodiscard]] ComputeResult unwrap() && {
    throw_if_error();
    return std::move(*result_);
  }
  [[nodiscard]] ComputeResult unwrap() const& {
    throw_if_error();
    return *result_;
  }

 private:
  void throw_if_error() const {
    if (ok()) return;
    if (error_->code == ComputeErrorCode::InvalidInput) {
      throw std::invalid_argument(error_->message);
    }
    throw std::runtime_error(error_->message);
  }

  std::optional<ComputeResult> result_;
  std::optional<ComputeError> error_;
};

/// One entry of the configuration library: how a distance function maps onto
/// the unified PE fabric.
struct ConfigEntry {
  dist::DistanceKind kind;
  bool matrix_structure;       ///< Fig. 1: matrix vs row connection.
  std::size_t opamps_per_pe;   ///< Actual inventory of our PE netlist.
  std::size_t memristors_per_pe;
  std::size_t tgates_per_pe;
  std::size_t comparators_per_pe;
  std::size_t diodes_per_pe;
  std::string notes;
};

/// The configuration library: one entry per supported function.  Inventories
/// are computed once from freshly built PE netlists (so they can never drift
/// from the circuits).
const std::vector<ConfigEntry>& configuration_library();
const ConfigEntry& config_for(dist::DistanceKind kind);

}  // namespace mda::core
