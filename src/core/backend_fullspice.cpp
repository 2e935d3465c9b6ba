#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/array_builder.hpp"
#include "core/array_cache.hpp"
#include "core/backend.hpp"
#include "core/dac_adc.hpp"
#include "core/tuning.hpp"
#include "fault/detection.hpp"
#include "fault/health.hpp"
#include "fault/injection.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "spice/transient.hpp"
#include "util/rng.hpp"

namespace mda::core {

namespace {

double max_abs(std::span<const double> v) {
  double peak = 0.0;
  for (double x : v) peak = std::max(peak, std::abs(x));
  return peak;
}

}  // namespace

EncodedInputs encode_inputs(const AcceleratorConfig& config,
                            const DistanceSpec& spec,
                            std::span<const double> p,
                            std::span<const double> q) {
  EncodedInputs enc;
  enc.vstep_eff = config.vstep;
  const std::size_t m = p.size();
  const std::size_t n = q.size();
  // Degenerate inputs: the DTW diagonal resample below indexes
  // p[i * (m - 1) / denom] — with m == 0 the size_t m - 1 wraps and the
  // index flies off the array.  Reject empties up front (all callers, not
  // just the Accelerator entry point, get a clean error); length-1 and
  // all-zero signals are well-defined (identity scale) and pass through.
  if (m == 0 || n == 0) {
    throw std::invalid_argument("encode_inputs: empty sequence");
  }

  // Worst-case output estimate drives range compression (the paper fixes
  // the voltage resolution per experiment for the same purpose, Sec. 4.1).
  const double maxdiff = max_abs(p) + max_abs(q);
  switch (spec.kind) {
    case dist::DistanceKind::Dtw: {
      // The diagonal-path cost bounds DTW for equal lengths; resample to a
      // common length otherwise.  A 1.5x warping allowance plus one-cell
      // headroom keeps the estimate safe without the crushing pessimism of
      // the maxdiff * (m+n) bound (which would shrink signals -- and blow
      // up relative error -- by an order of magnitude).
      const std::size_t len = std::max(m, n);
      const std::size_t denom = std::max<std::size_t>(len - 1, 1);
      double diag_cost = 0.0;
      for (std::size_t i = 0; i < len; ++i) {
        const double pv = p[i * (m - 1) / denom];
        const double qv = q[i * (n - 1) / denom];
        diag_cost += std::abs(pv - qv);
      }
      const double bound_path = (1.5 * diag_cost + 2.0 * maxdiff);
      const double bound_worst = maxdiff * static_cast<double>(m + n - 1);
      const double worst =
          std::min(bound_path, bound_worst) * config.voltage_resolution;
      if (worst > config.v_max) enc.scale = config.v_max / worst;
      break;
    }
    case dist::DistanceKind::Manhattan: {
      // MD is directly computable: scale to the exact result + 5% headroom.
      double md = 0.0;
      for (std::size_t i = 0; i < n; ++i) md += std::abs(p[i] - q[i]);
      const double worst = 1.05 * md * config.voltage_resolution;
      if (worst > config.v_max) enc.scale = config.v_max / worst;
      break;
    }
    case dist::DistanceKind::Hausdorff: {
      const double worst = maxdiff * config.voltage_resolution;
      if (worst > config.v_max) enc.scale = config.v_max / worst;
      break;
    }
    case dist::DistanceKind::Lcs:
    case dist::DistanceKind::Edit:
    case dist::DistanceKind::Hamming: {
      // Counting distances grow as n * Vstep regardless of input scale;
      // shrink the unit voltage instead ("we set Vstep to 10mV in case the
      // output voltage overflows", Sec. 4.1).
      const double worst = static_cast<double>(m + n) * config.vstep;
      if (worst > config.v_max) {
        enc.vstep_eff = config.v_max / static_cast<double>(m + n);
      }
      break;
    }
  }

  const double volts_per_value = config.voltage_resolution * enc.scale;
  // The DAC reference tracks the input signal range (programmable-reference
  // converter): quantisation spreads its 2^bits levels over the actual
  // signals, not over the full supply.
  const double full_scale =
      std::max(std::max(max_abs(p), max_abs(q)) * volts_per_value, 1e-6);
  Quantizer dac(config.dac_bits, full_scale);
  std::size_t clipped = 0;
  auto convert = [&](double value) {
    const double v = value * volts_per_value;
    if (!config.quantize_inputs) return v;
    const double out = dac.quantize(v);
    // The quantiser clamps at its rails; off-scale inputs lose information.
    if (std::abs(v) > full_scale) ++clipped;
    return out;
  };
  enc.p_volts.reserve(m);
  enc.q_volts.reserve(n);
  for (double v : p) enc.p_volts.push_back(convert(v));
  for (double v : q) enc.q_volts.push_back(convert(v));

  // Injected per-channel DAC faults corrupt the driven voltages after the
  // codec, exactly where a broken converter would (bank 0 = P, bank 1 = Q).
  if (config.faults) {
    auto corrupt = [&](std::vector<double>& volts, std::size_t bank) {
      for (std::size_t i = 0; i < volts.size(); ++i) {
        const auto f = config.faults->dac_fault(bank, i);
        if (!f) continue;
        if (f->kind == fault::ConverterFaultKind::StuckCode) {
          volts[i] = f->stuck_level * full_scale;
        } else {
          volts[i] += f->offset_v;
        }
      }
    };
    corrupt(enc.p_volts, 0);
    corrupt(enc.q_volts, 1);
  }

  static const obs::Counter encodes("mda.backend.encodes");
  static const obs::Counter clips("mda.backend.dac_clips");
  static const obs::Counter vstep_shrinks("mda.backend.vstep_shrinks");
  static const obs::Histogram scale_hist("mda.backend.encode_scale");
  encodes.add();
  if (clipped > 0) clips.add(clipped);
  if (enc.vstep_eff < config.vstep) vstep_shrinks.add();
  scale_hist.observe(enc.scale);
  return enc;
}

double decode_output(const AcceleratorConfig& config, const DistanceSpec& spec,
                     double volts, const EncodedInputs& enc) {
  switch (spec.kind) {
    case dist::DistanceKind::Lcs:
    case dist::DistanceKind::Edit:
    case dist::DistanceKind::Hamming:
      // Counting distances: divide by the unit voltage (Sec. 3.2.3: "the
      // exact result can be obtained by dividing E(m,n) by Vstep").
      return volts / enc.vstep_eff;
    case dist::DistanceKind::Dtw:
    case dist::DistanceKind::Hausdorff:
    case dist::DistanceKind::Manhattan:
      return volts / (config.voltage_resolution * enc.scale);
  }
  throw std::logic_error("unreachable");
}

double default_t_stop(dist::DistanceKind kind, std::size_t m, std::size_t n) {
  // Rough per-wavefront-stage settling allowance; the transient early-exits
  // once quiescent, so generosity here costs little.
  const double per_stage = 12e-9;
  switch (kind) {
    case dist::DistanceKind::Dtw:
    case dist::DistanceKind::Lcs:
    case dist::DistanceKind::Edit:
      return per_stage * static_cast<double>(m + n) + 100e-9;
    case dist::DistanceKind::Hausdorff:
      return 60e-9 + 2e-9 * static_cast<double>(m);
    case dist::DistanceKind::Hamming:
    case dist::DistanceKind::Manhattan:
      return 60e-9 + 1e-9 * static_cast<double>(n);
  }
  return 200e-9;
}

AnalogEval evaluate(Backend backend, const AcceleratorConfig& config,
                    const DistanceSpec& spec, const EncodedInputs& enc,
                    double t_stop) {
  switch (backend) {
    case Backend::Behavioral: {
      static const obs::Counter evals("mda.backend.behavioral_evals");
      static const obs::Histogram time("mda.backend.behavioral_time_s");
      const obs::ScopedTimer timer(time);
      evals.add();
      return eval_behavioral(config, spec, enc);
    }
    case Backend::Wavefront: {
      static const obs::Counter evals("mda.backend.wavefront_evals");
      static const obs::Histogram time("mda.backend.wavefront_time_s");
      const obs::ScopedTimer timer(time);
      evals.add();
      return eval_wavefront(config, spec, enc);
    }
    case Backend::FullSpice: {
      static const obs::Counter evals("mda.backend.fullspice_evals");
      static const obs::Histogram time("mda.backend.fullspice_time_s");
      const obs::ScopedTimer timer(time);
      evals.add();
      return eval_full_spice(config, spec, enc, t_stop);
    }
  }
  throw std::logic_error("unreachable backend");
}

AnalogEval eval_full_spice(const AcceleratorConfig& config,
                           const DistanceSpec& spec, const EncodedInputs& enc,
                           double t_stop) {
  AnalogEval result;

  // Injected solver fault: the transient refuses to converge for this
  // evaluation.  Keyed on the encoded inputs so the fault persists across
  // retries of the same query — recovery must come from degradation, not
  // from asking the same diverging solve again.
  if (config.faults &&
      config.faults->fullspice_nonconvergence(fault::FaultPlan::eval_key(
          enc.p_volts.data(), enc.p_volts.size(), enc.q_volts.data(),
          enc.q_volts.size()))) {
    static const obs::Counter injected("mda.fault.injected_nonconvergence");
    injected.add();
    result.error = "transient failed: injected Newton non-convergence";
    result.fault_detected = true;
    return result;
  }

  // Configure-once, stream-many (DESIGN.md §11): the built array and its
  // simulator persist across same-configuration queries; between queries
  // only the source waveforms are rewritten and the solver state reset
  // (run() itself resets device states).  An active fault plan bypasses the
  // cache: injection and re-tuning mutate persistent memristor/op-amp state
  // (force_stuck survives reset_state()), so those arrays must stay
  // per-query throwaways.
  const std::shared_ptr<ArrayCache>& cache =
      config.faults ? nullptr : config.array_cache;
  ArrayCache::Lease lease = ArrayCache::checkout(
      cache,
      make_instance_key(InstanceType::FullSpiceArray, config, spec, enc,
                        enc.p_volts.size(), enc.q_volts.size()),
      [] { return std::make_unique<SimArrayInstance>(); });
  auto* inst = static_cast<SimArrayInstance*>(lease.get());
  if (!inst->built) {
    // Bake the effective Vstep into the generated bias sources.
    AcceleratorConfig cfg = config;
    cfg.vstep = enc.vstep_eff;
    inst->array =
        build_array(cfg, spec, enc.p_volts.size(), enc.q_volts.size());
    inst->sim = std::make_unique<spice::TransientSimulator>(*inst->array.net);
    inst->sim->probe(inst->array.out, "out");
    inst->built = true;
  } else {
    inst->begin_query();
  }
  ArrayCircuit& array = inst->array;

  if (config.faults) {
    const auto& mems = array.factory->memristors();
    // Pre-fault resistances are the tuning targets the configuration module
    // programmed; capture them before breaking anything.
    std::vector<double> targets;
    targets.reserve(mems.size());
    for (const dev::Memristor* m : mems) targets.push_back(m->resistance());

    const fault::InjectionSummary injected = fault::apply_device_faults(
        mems, array.factory->opamps(), *config.faults);
    result.fault_detected = injected.total() > 0;

    // Recovery attempts re-run the Sec. 3.3 modulate/verify loop: drifted
    // devices tune back to target, stuck devices are quarantined (they stay
    // broken — degradation handles them).
    if (config.fault_attempt > 0 && injected.total() > 0) {
      static const obs::Counter retunes("mda.fault.retunes");
      static const obs::Counter quarantined("mda.fault.quarantined_devices");
      retunes.add();
      util::Rng rng(fault::FaultPlan::mix(
          config.faults->config().seed, /*domain=*/0x7E,
          static_cast<std::uint64_t>(config.fault_attempt), 0));
      const ArrayTuningReport rep =
          tune_all(mems, targets, TuningConfig{}, rng);
      if (rep.quarantined > 0) quarantined.add(rep.quarantined);
    }
  }

  array.set_step_inputs(enc.p_volts, enc.q_volts, /*t_edge=*/0.0);

  spice::TransientParams params;
  params.t_stop = t_stop > 0.0
                      ? t_stop
                      : default_t_stop(spec.kind, array.m, array.n);
  const spice::TransientResult tr = inst->sim->run(params);
  result.newton_iterations = tr.total_newton_iterations;
  result.solver_fallbacks = tr.fallback_steps;
  if (!tr.ok) {
    result.error = "transient failed: " + tr.error;
    return result;
  }
  if (fault::watchdog_tripped(tr.total_newton_iterations,
                              config.fault_handling.newton_budget)) {
    if (config.health) config.health->record_watchdog_trip();
    result.error = "transient watchdog: " +
                   std::to_string(tr.total_newton_iterations) +
                   " Newton iterations exceeded budget " +
                   std::to_string(config.fault_handling.newton_budget);
    result.fault_detected = true;
    return result;
  }
  const spice::Trace& out = tr.trace("out");
  result.ok = true;
  result.out_volts = out.final_value();
  result.convergence_time_s = spice::settling_time(out, 1e-3, 1e-3);
  return result;
}

std::vector<AnalogEval> eval_full_spice_batch(
    const AcceleratorConfig& config, const DistanceSpec& spec,
    std::span<const EncodedInputs> encs, double t_stop) {
  std::vector<AnalogEval> out;
  out.reserve(encs.size());
  for (const EncodedInputs& enc : encs) {
    out.push_back(evaluate(Backend::FullSpice, config, spec, enc, t_stop));
  }
  return out;
}

}  // namespace mda::core
