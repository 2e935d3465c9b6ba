#pragma once
// Modified nodal analysis: maps a Netlist onto a linear system
//   J * x = rhs,   x = [node voltages | branch currents]
// and solves one linearised step (one Newton iteration) at a given iterate.
//
// The sparsity pattern of the Jacobian is a property of the netlist, not of
// the iterate: devices stamp the same (row, col) pairs every Newton
// iteration and only the stamped values change.  MnaSystem exploits that by
// caching the merged CSC structure plus a triplet->slot accumulation tape
// the first time a pattern is seen, so every subsequent linearised solve is
// a value scatter (no sort, no dedup, no allocation) followed by an LU
// refactorisation that reuses the previous pivot order (DESIGN.md §10).
// The cached CSC matrix is stored symmetrically permuted into a
// fill-reducing, pivot-stable elimination order (spice/ordering.hpp), so
// SparseLu factors P*J*P^T; the right-hand side is gathered into that order
// before each solve and the solution scattered back after it.

#include <cstdint>
#include <utility>
#include <vector>

#include "spice/netlist.hpp"
#include "spice/sparse.hpp"
#include "spice/types.hpp"

namespace mda::spice {

class MnaSystem {
 public:
  /// Bind to a netlist.  Assigns branch rows to devices.  The netlist must
  /// outlive the MnaSystem and must not gain devices afterwards.
  explicit MnaSystem(Netlist& netlist, Tolerances tol = {});

  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] int num_unknowns() const { return num_unknowns_; }
  [[nodiscard]] bool has_nonlinear_devices() const { return has_nonlinear_; }
  [[nodiscard]] const Tolerances& tolerances() const { return tol_; }
  [[nodiscard]] Netlist& netlist() { return *netlist_; }

  /// Assemble the linearised system at ctx.x and solve it.  `gmin_extra`
  /// adds an extra conductance to ground on every node row (gmin stepping).
  /// Returns false if the matrix was singular.
  bool solve_linearized(const StampContext& ctx, double gmin_extra,
                        std::vector<double>& x_out);

  /// True if unknown index `i` is a node voltage (false: branch current).
  [[nodiscard]] bool is_voltage_unknown(int i) const { return i < num_nodes_; }

  /// Reset cross-solve solver state while keeping the structural caches
  /// (CSC pattern, accumulation tape, workspaces).  After this call the
  /// next solve_linearized() produces the exact results of a freshly
  /// constructed MnaSystem over the same netlist — the hook the cross-query
  /// instance cache (DESIGN.md §11) uses to make cached solves bit-identical
  /// to cold ones.  When refactoring is enabled, the LU factorisation is
  /// kept across the boundary and re-entered through
  /// SparseLu::refactor_cold_exact(), whose guard certifies the replay
  /// repeats a cold factor()'s arithmetic bit for bit; any guard failure
  /// falls back to a genuinely cold factor (pivot memory cleared first).
  void reset_solver_state();

  /// Elimination order of the cached sparse pattern: elimination_order()[k]
  /// is the unknown factored k-th (empty before the first solve).
  [[nodiscard]] const std::vector<int>& elimination_order() const {
    return perm_;
  }

  /// nnz(L+U) of the current sparse factorisation (0 when none).
  [[nodiscard]] std::size_t lu_nnz() const {
    return sparse_lu_.factored() ? sparse_lu_.nnz() : 0;
  }

  /// Full assembly of the linearised system at ctx.x into the triplet and
  /// RHS buffers (the stamping half of solve_linearized()), recording
  /// per-device triplet spans and the RHS injection log so
  /// reassemble_linearized() can replay them.
  void assemble_linearized(const StampContext& ctx, double gmin_extra);

  /// Partial restamp (DESIGN.md §12): within one solve point, linear
  /// devices' stamps do not depend on the iterate, so later Newton
  /// iterations replay their recorded triplet values and RHS injections and
  /// live-restamp only the nonlinear devices (verified to land on the
  /// recorded slots).  Byte-identical to assemble_linearized() when it
  /// returns true; returns false — caller must assemble fully — on a
  /// missing/mismatched recording or a nonlinear stamp-pattern change.
  bool reassemble_linearized(const StampContext& ctx, double gmin_extra);

  /// True when the assembled triplets (rows, cols, values, in stamp order)
  /// and RHS are byte-identical to `other`'s.
  [[nodiscard]] bool same_assembly(const MnaSystem& other) const;

 private:
  friend class NewtonSolver;

  /// Rebuild the elimination order, the CSC pattern cache and the
  /// accumulation tape from the triplets currently in rows_/cols_.
  /// Invalidates any cached LU factorisation.
  void rebuild_structure_cache();

  /// Gather rhs_ into elimination order (in lu_x_), ready for a solve.
  void permute_rhs();

  /// Scatter lu_x_ (a solution in elimination order) into unknown order.
  void unpermute_solution(std::vector<double>& x_out) const;

  /// The Newton assembly ladder: a full (recording) assembly on a solve point's first iteration, a
  /// partial restamp after, and a full assembly whenever the restamp
  /// refuses.
  void assemble_iterate(const StampContext& ctx, double gmin_extra,
                        bool first_iteration);

  /// The solving half of solve_linearized(): sparse LU over the assembled
  /// system, with the pattern/refactor/factor ladder and solver
  /// accounting.
  bool solve_assembled(std::vector<double>& x_out);

  /// Pattern check/rebuild + value scatter into the cached CSC slots (the
  /// preamble of solve_assembled).
  void prepare_sparse_values();

  Netlist* netlist_;
  Tolerances tol_;
  int num_nodes_ = 0;
  int num_unknowns_ = 0;
  bool has_nonlinear_ = false;
  /// Branch unknowns of nonlinear branch devices (op-amps, comparators):
  /// the columns the ordering's stability constraint guards.
  std::vector<int> guarded_branches_;
  // Assembly scratch (reused across iterations).
  std::vector<int> rows_;
  std::vector<int> cols_;
  std::vector<double> vals_;
  std::vector<double> rhs_;
  // Structure cache: the triplet pattern it was built from (fingerprint),
  // the merged CSC matrix whose values are refilled in place, and the
  // accumulation tape replaying from_triplets' exact duplicate-summation
  // order (accum slot <- triplet index) for bit-identical assembly.
  std::vector<int> pat_rows_;
  std::vector<int> pat_cols_;
  std::vector<int> accum_trip_;
  std::vector<int> accum_slot_;
  // Elimination order of the cached pattern: perm_[k] = unknown eliminated
  // k-th.  csc_ holds P*J*P^T in that order.
  std::vector<int> perm_;
  std::vector<double> lu_x_;  ///< RHS / solution in elimination order.
  CscMatrix csc_;
  // Solver state reused across linearised solves.
  SparseLu sparse_lu_;
  bool lu_valid_ = false;  ///< sparse_lu_ holds a refactorable factorisation.
  /// A factorisation survived reset_solver_state(); the next solve
  /// may reuse it only through the cold-exact guard (see solve_linearized).
  bool lu_stream_pending_ = false;
  // Partial-restamp recording, refreshed by every full assembly.
  bool replay_valid_ = false;
  std::vector<std::uint8_t> dev_nonlinear_;  ///< Cached Device::nonlinear().
  std::vector<int> dev_trip_end_;  ///< Per device: end index into rows_.
  std::vector<int> dev_inj_end_;   ///< Per device: end index into inject_log_.
  std::vector<std::pair<int, double>> inject_log_;
  /// Per-slot prefix of the RHS accumulation, computed once at record time:
  /// every linear injection that lands before the slot's first nonlinear
  /// injection (all of them, for slots no nonlinear device touches).  The
  /// remaining linear injections — the per-slot tails — are kept in
  /// lin_tail_ with per-device spans, so a reassembly is "copy base, then
  /// walk devices replaying tails and restamping nonlinear devices", which
  /// folds every slot in exactly the recorded order (same-slot order is
  /// device order; different slots never interact), hence bit-identical to
  /// a full assembly.
  std::vector<double> base_rhs_;
  std::vector<int> slot_first_nl_;  ///< Slot -> log index of first nl inject.
  std::vector<std::pair<int, double>> lin_tail_;
  std::vector<int> dev_tail_end_;  ///< Per device: end index into lin_tail_.
  double rec_t_ = 0.0, rec_dt_ = 0.0;
  bool rec_dc_ = false;
  Integration rec_method_ = Integration::BackwardEuler;
  double rec_source_scale_ = 1.0, rec_gmin_extra_ = 0.0;
  /// rows_/cols_ may have changed since the last pattern compare in
  /// prepare_sparse_values() (full assemblies push fresh triplets; a
  /// successful replay never touches them).
  bool pattern_dirty_ = true;
};

}  // namespace mda::spice
