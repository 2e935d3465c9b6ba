#pragma once
// Top-level accelerator API (the paper's Fig. 1 system: DAC array ->
// configurable computation module -> ADC array, under a control and
// configuration module).
//
// Usage:
//   mda::core::Accelerator acc;                       // 128x128 fabric
//   acc.configure({.kind = dist::DistanceKind::Dtw}); // from the config lib
//   auto outcome = acc.try_compute(P, Q);             // analog evaluation
//   if (outcome.ok()) outcome.value().value, ...;
//
// try_compute / ComputeOutcome is the single entry point: invalid inputs and
// backend failures come back as typed errors, never exceptions — the shape
// server callers need (DESIGN.md §13).  Callers that prefer unwinding call
// ComputeOutcome::unwrap().  Per-call knobs (backend override, starting
// fault attempt, tenant/deadline envelope) travel in core::QueryRequest —
// the same struct the wire protocol, BatchEngine and campaigns use — via
// the try_compute(QueryRequest) overload.  The execution backend default is
// part of AcceleratorConfig (set it at construction, via set_backend(), or
// with the configure() overload).

#include <span>
#include <vector>

#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/query.hpp"
#include "core/timing_model.hpp"
#include "power/power_model.hpp"

namespace mda::core {

class Accelerator {
 public:
  explicit Accelerator(AcceleratorConfig config = {});

  /// Select a distance function — the control/configuration module pulls
  /// the PE and interconnect configuration from the configuration library.
  void configure(DistanceSpec spec);
  /// Select a distance function and the execution backend in one step.
  void configure(DistanceSpec spec, Backend backend);
  /// Change the execution backend of subsequent try_compute() calls.
  void set_backend(Backend backend) { config_.backend = backend; }

  [[nodiscard]] const AcceleratorConfig& config() const { return config_; }
  [[nodiscard]] const DistanceSpec& spec() const { return spec_; }
  [[nodiscard]] const ConfigEntry& active_entry() const;

  // Self-healing interface (DESIGN.md §14).  All three require the caller
  // to guarantee no query is in flight on this accelerator — the scrub
  // scheduler drains/parks the owning shard replica first.
  /// Install (or clear, with nullptr) the device-health sink (scoreboard or
  /// journal) that solve-time detectors report into.
  void set_health(std::shared_ptr<fault::HealthSink> sink);
  /// Swap the active fault plan (chaos injection / healed-plan swap) and
  /// invalidate the instance cache.
  void set_fault_plan(std::shared_ptr<const fault::FaultPlan> plan);
  /// Re-run program-and-verify on degraded devices: bumps the base fault
  /// attempt (re-tunes drifted devices, quarantines untunable ones) and
  /// invalidates the instance cache so queries never lease a half-tuned
  /// array.
  void retune();

  /// Evaluate the configured distance on P and Q using the configured
  /// backend.  Invalid inputs and backend failures come back as
  /// ComputeOutcome errors instead of exceptions.
  [[nodiscard]] ComputeOutcome try_compute(std::span<const double> p,
                                           std::span<const double> q) const;

  /// The unified-API entry point: honours the request's backend override,
  /// starting fault attempt and (when set) its kind/threshold/band, which
  /// must match the configured spec — a mismatch is an InvalidInput error,
  /// not a silent reconfiguration.  A default-knob request behaves exactly
  /// like try_compute(req.p, req.q).
  [[nodiscard]] ComputeOutcome try_compute(const QueryRequest& req) const;

  /// try_compute(queries[i]) for every i, in order.  Exists only for the
  /// benchmark runner, which drives FullSpice groups through it.
  [[nodiscard]] std::vector<ComputeOutcome> try_compute_lockstep(
      std::span<const QueryRequest> queries) const;

  /// Tiling passes needed for sequences longer than the array (Sec. 3.1).
  [[nodiscard]] std::size_t tiles_required(std::size_t m, std::size_t n) const;

  /// Modeled end-to-end latency for one evaluation, including tiling and
  /// converter (DAC/ADC) serialisation.
  [[nodiscard]] double latency_s(std::size_t m, std::size_t n) const;

  /// Modeled time for the control/configuration module to program the whole
  /// fabric for the active distance function (Sec. 3.3(2), Fig. 4): every
  /// source-to-ground memristor path of every PE runs the modulate/verify
  /// loop serially through the shared write driver and 0.1 V probe.  This
  /// is the cost the configure-once/stream-many deployment (Fig. 1,
  /// DESIGN.md §11) amortises over a query stream — pay it once per
  /// configuration instead of once per query.
  [[nodiscard]] double configuration_time_s() const;

  /// Program-and-verify model constants (see configuration_time_s).  The
  /// paper: "the two steps can be iterated several times for better
  /// precision" — kTuneIterations is a conservative ceiling on the
  /// closed-loop convergence the tuning module (core/tuning.hpp) shows for
  /// a 1% target tolerance (typically ~2 iterations, see bench_tuning).
  static constexpr int kTuneIterations = 5;
  static constexpr double kModulatePulseS = 100e-9;  ///< Write pulse width.
  static constexpr double kVerifyReadS = 100e-9;     ///< Probe read + settle.

  /// Accelerator power in the active configuration at array size n
  /// (Sec. 4.3 accounting).
  [[nodiscard]] power::PowerBreakdown power(std::size_t n = 0) const;

  /// Timing model in use (defaults unless replace_timing_model was called).
  [[nodiscard]] const TimingModel& timing() const { return timing_; }
  void replace_timing_model(TimingModel model) { timing_ = model; }

 private:
  /// `base_attempt` offsets AcceleratorConfig::fault_attempt for the whole
  /// chain (QueryRequest::fault_attempt).
  ComputeOutcome try_compute_with(Backend backend, std::span<const double> p,
                                  std::span<const double> q,
                                  int base_attempt = 0) const;
  /// Spec-compatibility check for requests that pin kind/threshold/band;
  /// nullopt = compatible.
  [[nodiscard]] std::optional<ComputeError> spec_mismatch(
      const QueryRequest& req) const;

  AcceleratorConfig config_;
  DistanceSpec spec_;
  TimingModel timing_;
};

}  // namespace mda::core
