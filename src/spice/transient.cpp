#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace mda::spice {

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

std::vector<double> TransientSimulator::dc_operating_point() {
  for (auto& dev : netlist_->devices()) dev->reset_state();
  std::vector<double> x(static_cast<std::size_t>(mna_.num_unknowns()), 0.0);
  NewtonResult r = newton_.solve(x, 0.0, 0.0, /*dc=*/true);
  if (!r.converged) return {};
  // Commit device state at the operating point (capacitor charges, op-amp
  // lag states) so the transient starts from consistent initial conditions.
  StampContext ctx;
  ctx.t = 0.0;
  ctx.dt = 0.0;
  ctx.dc = true;
  ctx.x = &x;
  for (auto& dev : netlist_->devices()) dev->accept_step(ctx);
  return x;
}

TransientResult TransientSimulator::run(const TransientParams& params) {
  static const obs::Counter runs("mda.spice.transient_runs");
  static const obs::Counter steps_total("mda.spice.transient_steps");
  static const obs::Counter rejects("mda.spice.transient_rejects");
  static const obs::Counter steady_exits("mda.spice.transient_steady_exits");
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

  auto record = [&](double t) {
    for (std::size_t p = 0; p < probes_.size(); ++p) {
      const NodeId node = probes_[p].first;
      const double v =
          node == kGround ? 0.0 : x[static_cast<std::size_t>(node)];
      result.traces[p].t.push_back(t);
      result.traces[p].v.push_back(v);
    }
  };
  record(0.0);

  double t = 0.0;
  double dt = params.dt_init;
  int steady_streak = 0;
  std::vector<double> x_prev = x;

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
