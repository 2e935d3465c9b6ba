#include "core/accelerator.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/array_builder.hpp"
#include "core/array_cache.hpp"
#include "core/dac_adc.hpp"
#include "distance/registry.hpp"
#include "fault/detection.hpp"
#include "fault/health.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace mda::core {
namespace {

/// Degradation chain for a compute starting at `start` (DESIGN.md §9):
/// FullSpice -> Wavefront -> Behavioral truncated to start at `start`, or
/// just {start} when degradation is off.
std::vector<Backend> degradation_chain(Backend start, bool degrade) {
  std::vector<Backend> chain{start};
  if (degrade) {
    if (start == Backend::FullSpice) chain.push_back(Backend::Wavefront);
    if (start != Backend::Behavioral) chain.push_back(Backend::Behavioral);
  }
  return chain;
}

}  // namespace

Accelerator::Accelerator(AcceleratorConfig config)
    : config_(std::move(config)), timing_(TimingModel::defaults()) {
  // Configure-once, stream-many (DESIGN.md §11): the accelerator owns one
  // instance cache shared by every per-attempt/per-thread config copy made
  // from config_.  Campaigns may pre-install a cache shared across their
  // per-query accelerators.
  if (!config_.array_cache && config_.cache_capacity > 0) {
    config_.array_cache = std::make_shared<ArrayCache>(config_.cache_capacity);
  }
}

void Accelerator::configure(DistanceSpec spec) {
  // Validate against the configuration library (throws for unknown kinds).
  (void)config_for(spec.kind);
  spec_ = std::move(spec);
}

void Accelerator::configure(DistanceSpec spec, Backend backend) {
  configure(std::move(spec));
  config_.backend = backend;
}

const ConfigEntry& Accelerator::active_entry() const {
  return config_for(spec_.kind);
}

std::size_t Accelerator::tiles_required(std::size_t m, std::size_t n) const {
  auto ceil_div = [](std::size_t a, std::size_t b) { return (a + b - 1) / b; };
  if (dist::is_matrix_structure(spec_.kind)) {
    return ceil_div(m, config_.rows) * ceil_div(n, config_.cols);
  }
  return ceil_div(n, config_.cols);
}

double Accelerator::latency_s(std::size_t m, std::size_t n) const {
  const std::size_t tiles = tiles_required(m, n);
  const std::size_t tile_n = std::min(n, config_.cols);
  const double analog = timing_.convergence_time_s(spec_.kind, tile_n) *
                        static_cast<double>(tiles);
  // Converter serialisation: inputs stream through the DAC array, the final
  // result through one ADC conversion.
  const double dac_time =
      static_cast<double>(m + n) / (1.6e9 * static_cast<double>(
                                               std::max<std::size_t>(1, 4)));
  const double adc_time = 1.0 / 8.8e9;
  return analog + dac_time + adc_time;
}

double Accelerator::configuration_time_s() const {
  const power::PeInventory inv = measure_pe_inventory(spec_.kind);
  // The whole fabric is programmed for the function, independent of any one
  // query's length: matrix-structured kinds fill the rows x cols PE grid,
  // linear kinds one PE row.
  const std::size_t cells = dist::is_matrix_structure(spec_.kind)
                                ? config_.rows * config_.cols
                                : config_.cols;
  const double devices =
      static_cast<double>(cells) * static_cast<double>(inv.memristor_paths);
  return devices * static_cast<double>(kTuneIterations) *
         (kModulatePulseS + kVerifyReadS);
}

power::PowerBreakdown Accelerator::power(std::size_t n) const {
  if (n == 0) n = config_.cols;
  const power::PowerModel model;
  const power::PeInventory inv = measure_pe_inventory(spec_.kind);
  const double latency = latency_s(n, n);
  const double input_rate = static_cast<double>(2 * n) / latency;
  const double output_rate = 1.0 / latency;
  return model.accelerator_power(spec_.kind, n, inv, input_rate, output_rate,
                                 spec_.band);
}

ComputeOutcome Accelerator::try_compute_with(Backend backend,
                                             std::span<const double> p,
                                             std::span<const double> q,
                                             int base_attempt) const {
  static const obs::Counter computes("mda.accel.computes");
  static const obs::Counter failures("mda.accel.failures");
  static const obs::Histogram compute_time("mda.accel.compute_time_s");
  const obs::ScopedTimer timer(compute_time);
  computes.add();

  if (p.empty() || q.empty()) {
    failures.add();
    return ComputeError{ComputeErrorCode::InvalidInput,
                        "compute: empty sequence"};
  }
  if (dist::requires_equal_length(spec_.kind) && p.size() != q.size()) {
    failures.add();
    return ComputeError{ComputeErrorCode::InvalidInput,
                        "compute: " + dist::kind_name(spec_.kind) +
                            " requires equal-length sequences"};
  }

  static const obs::Counter fault_detected_ctr("mda.fault.detected");
  static const obs::Counter retries_ctr("mda.fault.retries");
  static const obs::Counter fallbacks_ctr("mda.fault.fallbacks");
  static const obs::Counter recovered_ctr("mda.fault.recovered");

  EncodedInputs enc;
  try {
    enc = encode_inputs(config_, spec_, p, q);
  } catch (const std::exception& e) {
    failures.add();
    ComputeError err{ComputeErrorCode::BackendFailure, e.what()};
    err.backend = backend;
    return err;
  }

  const bool counting = spec_.kind == dist::DistanceKind::Lcs ||
                        spec_.kind == dist::DistanceKind::Edit ||
                        spec_.kind == dist::DistanceKind::Hamming;

  // Recovery chain (DESIGN.md §9): walk the degradation chain, giving each
  // backend 1 + max_retries attempts; retry attempts carry fault_attempt > 0
  // so tunable faults are re-tuned before re-evaluating.  An envelope trip
  // is treated exactly like an evaluation failure.
  const FaultHandling& fh = config_.fault_handling;
  const std::vector<Backend> chain = degradation_chain(backend, fh.degrade);
  AnalogEval eval;
  std::string last_error;
  long newton_total = 0;
  long fallback_solves = 0;
  int attempts = 0;
  std::size_t chain_idx = 0;
  bool detected = false;
  bool success = false;
  for (std::size_t c = 0; c < chain.size() && !success; ++c) {
    for (int attempt = 0; attempt <= fh.max_retries; ++attempt) {
      ++attempts;
      if (attempt > 0) retries_ctr.add();
      bool ok = false;
      AcceleratorConfig cfg = config_;
      // Attempts stack on the accelerator's own re-tune level: a scrubbed
      // accelerator (retune() bumped config_.fault_attempt) must not see its
      // healing undone by a request that starts at attempt 0.
      cfg.fault_attempt += base_attempt + attempt;
      try {
        eval = evaluate(chain[c], cfg, spec_, enc);
        ok = eval.ok;
        if (!ok) last_error = eval.error;
      } catch (const std::exception& e) {
        eval = AnalogEval{};
        last_error = e.what();
      }
      newton_total += eval.newton_iterations;
      fallback_solves += eval.solver_fallbacks;
      detected = detected || eval.fault_detected;
      if (ok && config_.faults) {
        // Injected readback ADC fault (channel 0: the single distance
        // output) corrupts what the digital side sees — ahead of the
        // envelope check, exactly as in hardware.
        if (const auto f = config_.faults->adc_fault(0)) {
          if (f->kind == fault::ConverterFaultKind::StuckCode) {
            eval.out_volts = f->stuck_level * config_.v_max;
          } else {
            eval.out_volts += f->offset_v;
          }
        }
      }
      if (!ok) continue;
      const auto trip = fault::check_envelope(
          eval.out_volts,
          fault::envelope_for(config_.v_max, fault::kEnvelopeMargin));
      if (!trip) {
        chain_idx = c;
        success = true;
        break;
      }
      detected = true;
      last_error = *trip;
      if (config_.health) config_.health->record_envelope_trip();
    }
    if (!success && c + 1 < chain.size()) fallbacks_ctr.add();
  }
  if (detected) fault_detected_ctr.add();

  if (!success) {
    failures.add();
    if (config_.health) config_.health->record_backend_failure();
    ComputeError err{ComputeErrorCode::BackendFailure,
                     "accelerator backend failed: " + last_error};
    err.backend = chain.back();
    err.newton_iterations = newton_total;
    err.attempts = attempts;
    return err;
  }
  if (detected || attempts > 1 || chain_idx > 0) recovered_ctr.add();

  ComputeResult r;
  r.volts = eval.out_volts;
  if (config_.quantize_outputs) {
    // Readback through the 8-bit ADC spanning the representable DP range.
    const Quantizer adc(config_.adc_bits, config_.v_max);
    r.volts = adc.quantize(r.volts);
  }
  r.input_scale = enc.scale;
  r.value = decode_output(config_, spec_, r.volts, enc);
  r.reference = dist::compute(spec_.kind, p, q, spec_.reference_params());
  // Relative-error floor: one count for the counting distances, a tenth of
  // a unit for analog-valued ones, so near-zero references (identical
  // sequences) do not blow the ratio up.
  r.relative_error =
      util::relative_error(r.value, r.reference, counting ? 1.0 : 0.1);
  r.tiles = tiles_required(p.size(), q.size());
  r.backend_used = chain[chain_idx];
  r.attempts = attempts;
  r.fallbacks = static_cast<int>(chain_idx);
  r.newton_iterations = newton_total;
  r.solver_fallbacks = fallback_solves;
  r.quarantined_cells = eval.quarantined_cells;
  r.fault_detected = detected;
  r.convergence_time_s =
      r.backend_used == Backend::FullSpice && eval.convergence_time_s > 0.0
          ? eval.convergence_time_s
          : timing_.convergence_time_s(spec_.kind, q.size()) *
                static_cast<double>(r.tiles);
  if (config_.health) {
    config_.health->record_query(r.relative_error, r.fault_detected,
                                 r.fallbacks, r.newton_iterations);
  }
  return r;
}

void Accelerator::set_health(std::shared_ptr<fault::HealthSink> sink) {
  config_.health = std::move(sink);
}

void Accelerator::set_fault_plan(
    std::shared_ptr<const fault::FaultPlan> plan) {
  config_.faults = std::move(plan);
  // Memristor/op-amp faults apply at array build time: no instance built
  // under the old plan may serve another query.
  if (config_.array_cache) config_.array_cache->invalidate_all();
}

void Accelerator::retune() {
  // Scrub = one more pass of the Sec. 3.3 program-and-verify loop: attempts
  // above the base re-tune every tunable (drifted) device and quarantine the
  // untunable ones, exactly the retry semantics of DESIGN.md §9 — so the
  // scrub reuses the tuner's quarantine machinery by construction.  The
  // cache invalidation is the no-half-tuned-array barrier: in-flight leases
  // are dropped on give-back instead of re-pooled, and every later checkout
  // rebuilds (and re-verifies) against the bumped attempt.
  ++config_.fault_attempt;
  if (config_.array_cache) config_.array_cache->invalidate_all();
}

ComputeOutcome Accelerator::try_compute(std::span<const double> p,
                                        std::span<const double> q) const {
  return try_compute_with(config_.backend, p, q);
}

std::optional<ComputeError> Accelerator::spec_mismatch(
    const QueryRequest& req) const {
  if (!req.kind) return std::nullopt;
  if (*req.kind != spec_.kind) {
    return ComputeError{ComputeErrorCode::InvalidInput,
                        "compute: request kind " + dist::kind_name(*req.kind) +
                            " does not match configured " +
                            dist::kind_name(spec_.kind)};
  }
  if (req.threshold != spec_.threshold) {
    return ComputeError{ComputeErrorCode::InvalidInput,
                        "compute: request threshold does not match "
                        "configured spec"};
  }
  if (req.band != spec_.band) {
    return ComputeError{
        ComputeErrorCode::InvalidInput,
        "compute: request band does not match configured spec"};
  }
  return std::nullopt;
}

ComputeOutcome Accelerator::try_compute(const QueryRequest& req) const {
  if (auto err = spec_mismatch(req)) return std::move(*err);
  return try_compute_with(req.backend.value_or(config_.backend), req.p, req.q,
                          req.fault_attempt);
}

std::vector<ComputeOutcome> Accelerator::try_compute_lockstep(
    std::span<const QueryRequest> queries) const {
  std::vector<ComputeOutcome> out;
  out.reserve(queries.size());
  for (const QueryRequest& req : queries) out.push_back(try_compute(req));
  return out;
}

}  // namespace mda::core
