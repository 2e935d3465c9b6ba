#pragma once
// Newton-Raphson solver over one MNA solve point (DC operating point or one
// transient timestep), with per-iteration voltage damping and gmin / source
// stepping fallbacks for hard nonlinear cases.

#include <cstddef>
#include <vector>

#include "spice/mna.hpp"

namespace mda::spice {

struct NewtonResult {
  bool converged = false;
  /// Linearised solves spent on this solve point, including every homotopy
  /// stage (gmin / source stepping) when fallbacks were needed — the number
  /// the fault watchdog budgets against (DESIGN.md §9).
  int iterations = 0;
  double max_delta = 0.0;  ///< Largest unknown change at the last iteration.
  /// True when the plain iteration failed and a gmin / source stepping
  /// homotopy produced (or attempted) the result.
  bool used_fallback = false;
};

class NewtonSolver {
 public:
  explicit NewtonSolver(MnaSystem& mna) : mna_(&mna) {}

  /// Solve at the given time point starting from `x` (updated in place).
  /// `t`/`dt`/`dc` describe the point; devices read companion state
  /// themselves.  Applies gmin stepping, then source stepping, if the plain
  /// iteration fails.
  NewtonResult solve(std::vector<double>& x, double t, double dt, bool dc,
                     Integration method = Integration::BackwardEuler);

 private:
  NewtonResult iterate(std::vector<double>& x, double t, double dt, bool dc,
                       Integration method, double gmin_extra,
                       double source_scale);

  MnaSystem* mna_;
  std::vector<double> x_new_;  ///< Reused linearised-solve output buffer.
};

}  // namespace mda::spice
