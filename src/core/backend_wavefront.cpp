#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/array_builder.hpp"
#include "core/array_cache.hpp"
#include "core/backend.hpp"
#include "core/dac_adc.hpp"
#include "core/dc_harness.hpp"
#include "fault/detection.hpp"
#include "fault/health.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "spice/transient.hpp"
#include "util/log.hpp"

namespace mda::core {
namespace {

/// The Newton watchdog (DESIGN.md §9) over one whole wavefront evaluation:
/// true when it tripped, with the failure recorded in `result`.
bool watchdog_trips(const AcceleratorConfig& config, AnalogEval& result) {
  if (!fault::watchdog_tripped(result.newton_iterations,
                               config.fault_handling.newton_budget)) {
    return false;
  }
  if (config.health) config.health->record_watchdog_trip();
  result.error = "wavefront watchdog: Newton budget exceeded";
  result.fault_detected = true;
  return true;
}

AnalogEval eval_matrix_wavefront(const AcceleratorConfig& config,
                                 const DistanceSpec& spec,
                                 const EncodedInputs& enc) {
  AnalogEval result;
  const std::size_t m = enc.p_volts.size();
  const std::size_t n = enc.q_volts.size();
  const double vthre = spec.threshold * config.voltage_resolution * enc.scale;

  // Built per query (DESIGN.md §11): one single-PE harness per distinct
  // weight, shared by every cell of that weight within this query.
  HarnessCache harnesses;
  auto make = [&](double w) {
    return make_matrix_pe_harness(spec.kind, config, vthre, enc.vstep_eff, w);
  };

  // DP grid of measured analog voltages, with function-specific borders.
  std::vector<double> grid((m + 1) * (n + 1), 0.0);
  auto at = [&](std::size_t i, std::size_t j) -> double& {
    return grid[i * (n + 1) + j];
  };
  const double v_inf = config.v_max;
  dist::DistanceParams band_check;
  band_check.band = spec.band;
  if (spec.kind == dist::DistanceKind::Dtw) {
    for (std::size_t j = 0; j <= n; ++j) at(0, j) = v_inf;
    for (std::size_t i = 0; i <= m; ++i) at(i, 0) = v_inf;
    at(0, 0) = 0.0;
  } else if (spec.kind == dist::DistanceKind::Edit) {
    for (std::size_t j = 0; j <= n; ++j) at(0, j) = j * enc.vstep_eff;
    for (std::size_t i = 0; i <= m; ++i) at(i, 0) = i * enc.vstep_eff;
  }  // LCS borders stay 0.

  // Tiling (Sec. 3.1): when the problem exceeds the physical array, DP
  // values crossing a tile edge are read out through the ADC and re-driven
  // by the DAC on the next pass — modelled as re-quantisation at the edges.
  const Quantizer edge_adc(config.adc_bits, config.v_max);
  auto at_tile_edge = [&](std::size_t i, std::size_t j) {
    return (config.rows > 0 && i % config.rows == 0 && i < m) ||
           (config.cols > 0 && j % config.cols == 0 && j < n);
  };

  // Per-cell detection (DESIGN.md §9): each solved cell is compared against
  // the ideal volts-domain recurrence of its kind; a cell whose residual
  // exceeds the budget is quarantined — replaced by the prediction — so one
  // dead PE degrades accuracy instead of poisoning the whole wavefront.
  //
  // Comparator ambiguity band: skip the check when the |p-q| stage output
  // sits within a couple of millivolts of Vthre — the circuit and the ideal
  // recurrence may legitimately pick different branches there.
  constexpr double kThreBand = 2e-3;

  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      if (spec.kind == dist::DistanceKind::Dtw &&
          !band_check.in_band(i, j, m, n)) {
        at(i, j) = v_inf;
        continue;
      }
      const double w = quantize_weight(
          spec.pair_weights ? (*spec.pair_weights)[(i - 1) * n + (j - 1)]
                            : 1.0);
      const double left = at(i, j - 1);
      const double up = at(i - 1, j);
      const double diag = at(i - 1, j - 1);
      const double a_ideal =
          std::abs(enc.p_volts[i - 1] - enc.q_volts[j - 1]);

      double predicted = 0.0;
      bool check = true;
      switch (spec.kind) {
        case dist::DistanceKind::Dtw:
          predicted = fault::ideal_dtw_cell(w * a_ideal, left, up, diag);
          // Cells fed by the v_inf borders predict above the representable
          // range; the circuit clamps there, so the comparison is void.
          if (predicted > config.v_max) check = false;
          break;
        case dist::DistanceKind::Lcs:
          predicted = fault::ideal_lcs_cell(a_ideal <= vthre, left, up, diag,
                                            w, enc.vstep_eff);
          if (std::abs(a_ideal - vthre) < kThreBand) check = false;
          break;
        default:  // Edit
          predicted = fault::ideal_edit_cell(a_ideal <= vthre, left, up, diag,
                                             w, enc.vstep_eff);
          if (std::abs(a_ideal - vthre) < kThreBand) check = false;
          break;
      }

      DcHarness& h = harnesses.get(weight_key(w), [&] { return make(w); });
      set_sources(h, {enc.p_volts[i - 1], enc.q_volts[j - 1], left, up, diag});
      double solved = 0.0;
      bool solved_ok = true;
      try {
        solved = h.solve_out();
      } catch (const std::runtime_error&) {
        // A non-converging cell is itself a fault: quarantine it.
        solved_ok = false;
      }

      // Injected PE cell faults corrupt the measured output.  Drift heals
      // on re-tuned retry attempts; stuck cells stay broken (the residual
      // check is what rescues them).
      if (solved_ok && config.faults) {
        if (const auto f = config.faults->cell_fault(i - 1, j - 1)) {
          const bool heal = config.fault_attempt > 0 &&
                            f->kind == fault::CellFaultKind::Drift;
          if (!heal) {
            switch (f->kind) {
              case fault::CellFaultKind::StuckLow: solved = 0.0; break;
              case fault::CellFaultKind::StuckHigh: solved = config.v_max;
                break;
              case fault::CellFaultKind::Drift: solved += f->drift_v; break;
            }
          }
        }
      }

      if (!solved_ok ||
          (check && fault::residual_exceeds(solved, predicted,
                                           fault::kCellResidualTolV))) {
        static const obs::Counter quarantines("mda.fault.quarantined_cells");
        quarantines.add();
        if (config.health) {
          config.health->record_quarantine(
              i - 1, j - 1, solved_ok ? solved - predicted : v_inf);
        }
        at(i, j) = std::clamp(predicted, 0.0, v_inf);
        ++result.quarantined_cells;
        result.fault_detected = true;
      } else {
        at(i, j) = solved;
      }
      if (at_tile_edge(i, j)) at(i, j) = edge_adc.quantize(at(i, j));
    }
  }
  result.newton_iterations = harnesses.total_newton();
  result.solver_fallbacks = harnesses.total_fallbacks();
  if (watchdog_trips(config, result)) return result;
  result.ok = true;
  result.out_volts = at(m, n);
  return result;
}

AnalogEval eval_haud_wavefront(const AcceleratorConfig& config,
                               const DistanceSpec& spec,
                               const EncodedInputs& enc) {
  AnalogEval result;
  const std::size_t m = enc.p_volts.size();
  const std::size_t n = enc.q_volts.size();

  // Built per query (DESIGN.md §11): the final diode max over the n column
  // minima, and a cold column harness at every weights-change boundary,
  // whose counters are banked before it is replaced.
  const std::unique_ptr<DcHarness> finmax =
      make_haud_finmax_harness(config, n);
  std::unique_ptr<DcHarness> column;
  std::uint64_t prev_digest = 0;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> weights(m, 1.0);
    if (spec.pair_weights) {
      for (std::size_t i = 0; i < m; ++i) {
        weights[i] = quantize_weight((*spec.pair_weights)[i * n + j]);
      }
    }
    const std::uint64_t digest = weights_digest(weights);
    if (!column || digest != prev_digest) {
      if (column) {
        result.newton_iterations += column->newton_total;
        result.solver_fallbacks += column->fallback_total;
      }
      column = make_haud_column_harness(config, m, weights);
      prev_digest = digest;
    }
    for (std::size_t i = 0; i < m; ++i) {
      column->sources_[2 * i]->set_waveform(
          spice::Waveform::dc(enc.p_volts[i]));
      column->sources_[2 * i + 1]->set_waveform(
          spice::Waveform::dc(enc.q_volts[j]));
    }
    finmax->sources_[j]->set_waveform(
        spice::Waveform::dc(column->solve_out()));
  }
  result.out_volts = finmax->solve_out();
  if (column) {
    result.newton_iterations += column->newton_total;
    result.solver_fallbacks += column->fallback_total;
  }
  result.newton_iterations += finmax->newton_total;
  result.solver_fallbacks += finmax->fallback_total;
  if (watchdog_trips(config, result)) return result;
  result.ok = true;
  return result;
}

AnalogEval eval_row_wavefront(const AcceleratorConfig& config,
                              const DistanceSpec& spec,
                              const EncodedInputs& enc) {
  // The row structure is cheap enough to DC-solve whole.
  AnalogEval result;
  ArrayCache::Lease lease = ArrayCache::checkout(
      config.array_cache, make_instance_key(config, spec, enc));
  RowWavefrontInstance* inst = lease.get();
  if (!inst->built) {
    AcceleratorConfig cfg = config;
    cfg.vstep = enc.vstep_eff;
    inst->array =
        build_array(cfg, spec, enc.p_volts.size(), enc.q_volts.size());
    inst->sim = std::make_unique<spice::TransientSimulator>(*inst->array.net);
    inst->built = true;
  } else {
    inst->begin_query();
  }
  inst->array.set_dc_inputs(enc.p_volts, enc.q_volts);
  spice::NewtonResult dc;
  const std::vector<double> x = inst->sim->dc_operating_point(&dc);
  result.newton_iterations = dc.iterations;
  result.solver_fallbacks = dc.used_fallback ? 1 : 0;
  if (x.empty()) {
    result.error = "row-array DC operating point failed";
    return result;
  }
  if (watchdog_trips(config, result)) return result;
  result.ok = true;
  result.out_volts = x[static_cast<std::size_t>(inst->array.out)];
  return result;
}

}  // namespace

AnalogEval eval_wavefront(const AcceleratorConfig& config,
                          const DistanceSpec& spec, const EncodedInputs& enc) {
  switch (spec.kind) {
    case dist::DistanceKind::Dtw:
    case dist::DistanceKind::Lcs:
    case dist::DistanceKind::Edit:
      return eval_matrix_wavefront(config, spec, enc);
    case dist::DistanceKind::Hausdorff:
      return eval_haud_wavefront(config, spec, enc);
    case dist::DistanceKind::Hamming:
    case dist::DistanceKind::Manhattan:
      return eval_row_wavefront(config, spec, enc);
  }
  throw std::logic_error("unreachable");
}

}  // namespace mda::core
