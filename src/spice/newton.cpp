#include "spice/newton.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace mda::spice {
namespace {

// Solver accounting (DESIGN.md §8): every solve point, every iteration, and
// every fallback escalation is visible in the metrics snapshot.
const obs::Counter& solves_counter() {
  static const obs::Counter c("mda.spice.newton_solves");
  return c;
}
const obs::Counter& iterations_counter() {
  static const obs::Counter c("mda.spice.newton_iterations");
  return c;
}

}  // namespace

NewtonResult NewtonSolver::iterate(std::vector<double>& x, double t, double dt,
                                   bool dc, Integration method,
                                   double gmin_extra, double source_scale) {
  const Tolerances& tol = mna_->tolerances();
  NewtonResult res;
  std::vector<double>& x_new = x_new_;
  StampContext ctx;
  ctx.t = t;
  ctx.dt = dt;
  ctx.dc = dc;
  ctx.method = method;
  ctx.x = &x;
  ctx.source_scale = source_scale;

  const bool needs_iterations = mna_->has_nonlinear_devices();
  // Damping applies only to nonlinear solves (a linear solve lands exactly);
  // the limit shrinks periodically to break saturation-induced oscillation
  // (high-gain op-amp stages flipping rail to rail between iterations).
  double step_limit = tol.v_step_limit;
  for (int it = 0; it < tol.max_newton_iters; ++it) {
    // Partial restamp (DESIGN.md §12): only the first iteration of the solve
    // point stamps every device.
    mna_->assemble_iterate(ctx, gmin_extra, it == 0);
    if (!mna_->solve_assembled(x_new)) {
      res.converged = false;
      res.iterations = it + 1;
      iterations_counter().add(static_cast<std::uint64_t>(res.iterations));
      return res;
    }
    if (needs_iterations && it > 0 && it % 25 == 0) {
      step_limit = std::max(step_limit * 0.5, 1e-4);
    }
    double max_delta = 0.0;
    bool converged = true;
    for (int i = 0; i < mna_->num_unknowns(); ++i) {
      const auto ui = static_cast<std::size_t>(i);
      double delta = x_new[ui] - x[ui];
      if (needs_iterations && mna_->is_voltage_unknown(i)) {
        delta = std::clamp(delta, -step_limit, step_limit);
      }
      const double updated = x[ui] + delta;
      const double atol = mna_->is_voltage_unknown(i) ? tol.vntol : tol.abstol;
      const double limit =
          atol + tol.reltol * std::max(std::abs(updated), std::abs(x[ui]));
      if (std::abs(delta) > limit) converged = false;
      max_delta = std::max(max_delta, std::abs(delta));
      x[ui] = updated;
    }
    res.iterations = it + 1;
    res.max_delta = max_delta;
    if (!needs_iterations || converged) {
      // Linear circuits converge in a single solve; nonlinear ones need the
      // stamp to have been evaluated at (numerically) the final iterate, so
      // require at least two passes.
      if (!needs_iterations || it >= 1) {
        res.converged = true;
        iterations_counter().add(static_cast<std::uint64_t>(res.iterations));
        return res;
      }
    }
  }
  res.converged = false;
  iterations_counter().add(static_cast<std::uint64_t>(res.iterations));
  return res;
}

NewtonResult NewtonSolver::solve(std::vector<double>& x, double t, double dt,
                                 bool dc, Integration method) {
  solves_counter().add();

  NewtonResult res = iterate(x, t, dt, dc, method, 0.0, 1.0);
  if (res.converged) return res;

  static const obs::Counter gmin_retries("mda.spice.gmin_retries");
  static const obs::Counter gmin_steps("mda.spice.gmin_steps");
  static const obs::Counter source_retries("mda.spice.source_retries");
  static const obs::Counter failures("mda.spice.newton_failures");

  // Every homotopy stage below spends real linearised solves; the returned
  // iteration count accumulates all of them so TransientResult /
  // ComputeResult provenance and the fault watchdog see the true cost.
  long total_iterations = res.iterations;

  // gmin stepping: solve with a large artificial conductance to ground and
  // progressively remove it.
  util::log_debug() << "Newton failed at t=" << t << "; trying gmin stepping";
  gmin_retries.add();
  std::vector<double> x_try = x;
  bool ok = true;
  for (double gmin = 1e-2; gmin >= 1e-13; gmin /= 10.0) {
    gmin_steps.add();
    NewtonResult r = iterate(x_try, t, dt, dc, method, gmin, 1.0);
    total_iterations += r.iterations;
    if (!r.converged) {
      ok = false;
      break;
    }
  }
  if (ok) {
    NewtonResult r = iterate(x_try, t, dt, dc, method, 0.0, 1.0);
    total_iterations += r.iterations;
    if (r.converged) {
      x = x_try;
      r.iterations = static_cast<int>(total_iterations);
      r.used_fallback = true;
      return r;
    }
  }

  // Source stepping homotopy as a last resort.
  util::log_debug() << "gmin stepping failed at t=" << t
                    << "; trying source stepping";
  source_retries.add();
  x_try.assign(x.size(), 0.0);
  ok = true;
  NewtonResult last;
  for (double scale = 0.1; scale <= 1.0001; scale += 0.1) {
    NewtonResult r =
        iterate(x_try, t, dt, dc, method, 0.0, std::min(scale, 1.0));
    total_iterations += r.iterations;
    last = r;
    if (!r.converged) {
      ok = false;
      break;
    }
  }
  if (ok) {
    x = x_try;
    last.iterations = static_cast<int>(total_iterations);
    last.used_fallback = true;
    return last;
  }
  failures.add();
  res.iterations = static_cast<int>(total_iterations);
  res.used_fallback = true;
  return res;
}

}  // namespace mda::spice
