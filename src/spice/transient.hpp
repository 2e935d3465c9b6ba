#pragma once
// Transient analysis driver: DC operating point followed by adaptive
// backward-Euler time stepping, recording probed node voltages.  A settled
// tail is projected onto its equilibrium (DESIGN.md §12) before the steady
// exit certifies it.

#include <string>
#include <vector>

#include "spice/mna.hpp"
#include "spice/newton.hpp"
#include "spice/probe.hpp"

namespace mda::spice {

struct TransientParams {
  double t_stop = 50e-9;    ///< Simulation horizon [s].
  Integration method = Integration::BackwardEuler;
  double dt_init = 1e-12;   ///< Initial timestep [s].
  double dt_min = 1e-15;    ///< Smallest allowed timestep [s].
  double dt_max = 50e-12;   ///< Largest allowed timestep [s].
  double grow = 1.4;        ///< Step growth factor on easy convergence.
  double shrink = 0.25;     ///< Step shrink factor on Newton failure.
  /// Stop early once every unknown moves less than this per accepted step at
  /// dt_max, for `steady_count` consecutive steps (0 disables).  The tail
  /// projection (DESIGN.md §12) starts trying once every unknown moves
  /// less than 1e3 * steady_tol per step, and is off with it.
  double steady_tol = 1e-9;
  int steady_count = 8;
  bool run_dc_first = true;  ///< Compute the t<0 operating point first.
};

struct TransientResult {
  bool ok = false;
  std::string error;
  std::vector<Trace> traces;       ///< One per probe, same order.
  std::vector<double> final_x;     ///< Final solution vector.
  int steps = 0;
  long total_newton_iterations = 0;
  /// Solve points (accepted or rejected) that needed a gmin/source-stepping
  /// homotopy to converge — nonzero means the circuit was near-failing.
  int fallback_steps = 0;
  double t_end = 0.0;              ///< Time actually reached.

  /// Trace lookup by probe name; throws std::out_of_range if missing.
  [[nodiscard]] const Trace& trace(const std::string& name) const;
};

class TransientSimulator {
 public:
  TransientSimulator(Netlist& netlist, Tolerances tol = {});

  /// Add a probe on a node; returns its index in TransientResult::traces.
  std::size_t probe(NodeId node, std::string name);

  /// Run the transient analysis.
  TransientResult run(const TransientParams& params);

  /// DC operating point only (sources at their t<0 values).
  /// Returns the solution vector, empty on failure; `solve`, when given,
  /// receives the Newton solve's iterations and fallback flag.
  std::vector<double> dc_operating_point(NewtonResult* solve = nullptr);

  [[nodiscard]] MnaSystem& mna() { return mna_; }

 private:
  /// Commit every device's state at the equilibrium `x` (the DC accept).
  void accept_equilibrium(const std::vector<double>& x, double t);

  Netlist* netlist_;
  MnaSystem mna_;
  NewtonSolver newton_;
  std::vector<std::pair<NodeId, std::string>> probes_;
};

}  // namespace mda::spice
