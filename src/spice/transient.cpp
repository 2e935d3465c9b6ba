#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace mda::spice {
namespace {

// Tail projection (DESIGN.md §12): once every unknown moves less than
// kQuietFactor * steady_tol per dt_max step for steady_count steps in a row,
// the transient jumps to the equilibrium at the present source values — one
// Newton solve whose backward-Euler companions use kProjectionDt, a step far
// longer than any time constant in the accelerator circuits — and keeps the
// jump only if it moves no probed node by more than kGuardFactor Newton
// tolerances.
constexpr double kQuietFactor = 1e3;
constexpr double kProjectionDt = 1.0;  // [s]
constexpr double kGuardFactor = 10.0;

}  // namespace

const Trace& TransientResult::trace(const std::string& name) const {
  for (const auto& tr : traces) {
    if (tr.name == name) return tr;
  }
  throw std::out_of_range("no trace named '" + name + "'");
}

TransientSimulator::TransientSimulator(Netlist& netlist, Tolerances tol)
    : netlist_(&netlist), mna_(netlist, tol), newton_(mna_) {}

std::size_t TransientSimulator::probe(NodeId node, std::string name) {
  probes_.emplace_back(node, std::move(name));
  return probes_.size() - 1;
}

std::vector<double> TransientSimulator::dc_operating_point(
    NewtonResult* solve) {
  for (auto& dev : netlist_->devices()) dev->reset_state();
  std::vector<double> x(static_cast<std::size_t>(mna_.num_unknowns()), 0.0);
  const NewtonResult r = newton_.solve(x, 0.0, 0.0, /*dc=*/true);
  if (solve != nullptr) *solve = r;
  if (!r.converged) return {};
  // Commit device state at the operating point (capacitor charges, op-amp
  // lag states) so the transient starts from consistent initial conditions.
  accept_equilibrium(x, 0.0);
  return x;
}

void TransientSimulator::accept_equilibrium(const std::vector<double>& x,
                                            double t) {
  // The DC accept: capacitors carry no current, op-amp and comparator lags
  // sit at their targets, memristor state is untouched.
  StampContext ctx;
  ctx.t = t;
  ctx.dt = 0.0;
  ctx.dc = true;
  ctx.x = &x;
  for (auto& dev : netlist_->devices()) dev->accept_step(ctx);
}

TransientResult TransientSimulator::run(const TransientParams& params) {
  static const obs::Counter runs("mda.spice.transient_runs");
  static const obs::Counter steps_total("mda.spice.transient_steps");
  static const obs::Counter rejects("mda.spice.transient_rejects");
  static const obs::Counter steady_exits("mda.spice.transient_steady_exits");
  static const obs::Counter projections("mda.spice.transient_projections");
  static const obs::Counter projections_rejected(
      "mda.spice.transient_projections_rejected");
  static const obs::Histogram run_time("mda.spice.transient_time_s");
  const obs::ScopedTimer timer(run_time);
  runs.add();

  TransientResult result;
  result.traces.reserve(probes_.size());
  for (const auto& [node, name] : probes_) {
    Trace tr;
    tr.node = node;
    tr.name = name;
    result.traces.push_back(std::move(tr));
  }

  std::vector<double> x;
  if (params.run_dc_first) {
    x = dc_operating_point();
    if (x.empty()) {
      result.error = "DC operating point failed to converge";
      return result;
    }
  } else {
    for (auto& dev : netlist_->devices()) dev->reset_state();
    x.assign(static_cast<std::size_t>(mna_.num_unknowns()), 0.0);
  }

  const auto probed = [&](const std::vector<double>& v, std::size_t p) {
    const NodeId node = probes_[p].first;
    return node == kGround ? 0.0 : v[static_cast<std::size_t>(node)];
  };
  auto record = [&](double t) {
    for (std::size_t p = 0; p < probes_.size(); ++p) {
      result.traces[p].t.push_back(t);
      result.traces[p].v.push_back(probed(x, p));
    }
  };
  record(0.0);

  const Tolerances& tol = mna_.tolerances();
  // The projection guard: how far a probed node at `v` may jump.
  const auto guard = [&](double v) {
    return kGuardFactor * (tol.vntol + tol.reltol * std::abs(v));
  };

  double t = 0.0;
  double dt = params.dt_init;
  int steady_streak = 0;
  std::vector<double> x_prev = x;
  // Tail projection state: the quiet streak, the streak the next attempt
  // needs (doubled after each rejection), and a ring of the probed values at
  // the last 2 * steady_count + 1 steps at dt_max.
  int quiet_streak = 0;
  int quiet_needed = params.steady_count;
  const auto window =
      static_cast<std::size_t>(std::max(params.steady_count, 1));
  const std::size_t span = 2 * window + 1;
  std::vector<double> history(span * probes_.size());
  std::size_t sampled = 0;
  const auto past = [&](std::size_t back, std::size_t p) {
    return history[((sampled - 1 - back) % span) * probes_.size() + p];
  };
  // Attempt a projection only when every probe moved less than half its
  // guard over the older of the last two windows, and its geometric tail —
  // the newer window's displacement * r / (1 - r), r the ratio of the two
  // displacements — fits in that half too.  A probe still ringing or
  // drifting toward a slow mode fails one of the two.
  const auto tail_fits_guard = [&] {
    if (sampled < span) return false;
    for (std::size_t p = 0; p < probes_.size(); ++p) {
      const double limit = 0.5 * guard(past(0, p));
      const double d1 = past(0, p) - past(window, p);
      const double d0 = past(window, p) - past(2 * window, p);
      if (std::abs(d0) > limit) return false;
      if (d1 == 0.0) continue;
      const double r = d1 / d0;
      if (!(std::abs(r) < 1.0) || std::abs(d1 * r / (1.0 - r)) > limit) {
        return false;
      }
    }
    return true;
  };
  std::vector<double> x_eq;

  while (t < params.t_stop) {
    dt = std::min(dt, params.t_stop - t);
    x_prev = x;
    // Standard practice: damp the t=0 source discontinuity with one
    // backward-Euler step before switching to the requested method —
    // trapezoidal companions otherwise ring on the step edge.
    const Integration method =
        result.steps == 0 ? Integration::BackwardEuler : params.method;
    NewtonResult r = newton_.solve(x, t + dt, dt, /*dc=*/false, method);
    result.total_newton_iterations += r.iterations;
    if (r.used_fallback) ++result.fallback_steps;
    if (!r.converged) {
      rejects.add();
      x = x_prev;
      dt *= params.shrink;
      if (dt < params.dt_min) {
        result.error = "timestep underflow at t=" + std::to_string(t);
        result.t_end = t;
        return result;
      }
      continue;
    }
    t += dt;
    ++result.steps;
    steps_total.add();
    // Commit device state for the accepted step.
    StampContext ctx;
    ctx.t = t;
    ctx.dt = dt;
    ctx.dc = false;
    ctx.method = method;
    ctx.x = &x;
    for (auto& dev : netlist_->devices()) dev->accept_step(ctx);
    record(t);

    // Early termination when the whole circuit is quiescent.
    if (params.steady_tol > 0.0 && dt >= params.dt_max * 0.999) {
      double max_delta = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        max_delta = std::max(max_delta, std::abs(x[i] - x_prev[i]));
      }
      steady_streak = max_delta < params.steady_tol ? steady_streak + 1 : 0;
      if (steady_streak >= params.steady_count) {
        util::log_debug() << "steady state reached at t=" << t;
        steady_exits.add();
        break;
      }
      // Tail projection: jump to the equilibrium at the present source
      // values once the circuit is quiet and the probes' tails fit the
      // guard; the steady exit above still has to certify the result.
      quiet_streak = max_delta < kQuietFactor * params.steady_tol
                         ? quiet_streak + 1
                         : 0;
      for (std::size_t p = 0; p < probes_.size(); ++p) {
        history[(sampled % span) * probes_.size() + p] = probed(x, p);
      }
      ++sampled;
      if (quiet_streak >= quiet_needed && tail_fits_guard()) {
        quiet_streak = 0;
        x_eq = x;
        const NewtonResult pr =
            newton_.solve_direct(x_eq, t, kProjectionDt, /*dc=*/false);
        result.total_newton_iterations += pr.iterations;
        bool accept = pr.converged;
        for (std::size_t p = 0; accept && p < probes_.size(); ++p) {
          accept = std::abs(probed(x_eq, p) - probed(x, p)) <=
                   guard(probed(x_eq, p));
        }
        if (accept) {
          // No trace sample: the jump is inside the guard.
          projections.add();
          x.swap(x_eq);
          accept_equilibrium(x, t);
          steady_streak = 0;
          quiet_needed = params.steady_count;
          sampled = 0;
        } else {
          projections_rejected.add();
          quiet_needed *= 2;
        }
      }
    }
    // Adaptive growth: quick *direct* Newton convergence means the step was
    // easy.  A fallback-recovered step was a near-failure whatever its
    // iteration count says — growing dt right after one invites the next
    // reject, so require a plain solve.
    if (r.iterations <= 4 && !r.used_fallback) {
      dt = std::min(dt * params.grow, params.dt_max);
    }
  }

  result.ok = true;
  result.t_end = t;
  result.final_x = std::move(x);
  return result;
}

}  // namespace mda::spice
