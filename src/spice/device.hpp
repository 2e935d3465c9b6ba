#pragma once
// Device interface for the MNA simulator.
//
// Each Newton iteration, every device stamps its linearisation around the
// current iterate into the system matrix and right-hand side.  KCL rows use
// the convention "sum of currents leaving the node through devices equals
// the stamped RHS injection"; a two-terminal conductance G between nodes a,b
// therefore stamps +G on the diagonals and -G off-diagonal.  Devices that
// introduce a branch current (voltage sources, op-amp outputs) are assigned
// one extra unknown row each by the MNA setup.

#include <string>
#include <utility>
#include <vector>

#include "spice/types.hpp"

namespace mda::spice {

/// Companion-model integration method for reactive devices.
enum class Integration {
  BackwardEuler,  ///< L-stable, damps ringing; the robust default.
  Trapezoidal,    ///< 2nd-order accurate, energy preserving.
};

/// Everything a device needs to linearise itself at the current iterate.
struct StampContext {
  double t = 0.0;      ///< Current simulation time [s].
  double dt = 0.0;     ///< Timestep [s]; 0 for the DC operating point.
  bool dc = true;      ///< True for the DC operating point solve.
  Integration method = Integration::BackwardEuler;
  const std::vector<double>* x = nullptr;  ///< Current iterate (V then I).
  double source_scale = 1.0;  ///< Source-stepping homotopy factor in [0,1].

  /// Voltage of a node at the current iterate (0 for ground).
  [[nodiscard]] double v(NodeId n) const {
    return n == kGround ? 0.0 : (*x)[static_cast<std::size_t>(n)];
  }
  /// Value of unknown `row` (nodes and branch currents share one vector).
  [[nodiscard]] double unknown(int row) const {
    return row < 0 ? 0.0 : (*x)[static_cast<std::size_t>(row)];
  }
};

/// Collects matrix/RHS contributions.  Ground rows/columns are discarded.
class Stamper {
 public:
  Stamper(std::vector<int>& rows, std::vector<int>& cols,
          std::vector<double>& vals, std::vector<double>& rhs)
      : rows_(rows), cols_(cols), vals_(vals), rhs_(rhs) {}

  /// Raw matrix entry A[row][col] += g (row/col may be node or branch index;
  /// negative indices are ground and ignored).
  void add(int row, int col, double g) {
    if (row < 0 || col < 0 || g == 0.0) return;
    if (replay_) {
      // Replay mode: the entry must land on the next recorded slot — a
      // dropped, regrown or reordered entry is a pattern change the caller
      // must handle with a full assembly.
      if (trip_cur_ == trip_end_ ||
          rows_[static_cast<std::size_t>(trip_cur_)] != row ||
          cols_[static_cast<std::size_t>(trip_cur_)] != col) {
        replay_failed_ = true;
        return;
      }
      vals_[static_cast<std::size_t>(trip_cur_++)] = g;
      return;
    }
    rows_.push_back(row);
    cols_.push_back(col);
    vals_.push_back(g);
  }

  /// Conductance g between nodes a and b (standard 4-entry stamp).
  void conductance(NodeId a, NodeId b, double g) {
    add(a, a, g);
    add(b, b, g);
    add(a, b, -g);
    add(b, a, -g);
  }

  /// Current injection `i` INTO node n (RHS contribution).
  void inject(int row, double i) {
    if (row < 0) return;
    if (replay_) {
      // The injection row sequence must repeat the recording so the RHS
      // accumulation order (and hence every bit of the sum) is preserved.
      if (inj_cur_ == inj_end_ ||
          (*replay_log_)[static_cast<std::size_t>(inj_cur_)].first != row) {
        replay_failed_ = true;
        return;
      }
      ++inj_cur_;
      rhs_[static_cast<std::size_t>(row)] += i;
      return;
    }
    rhs_[static_cast<std::size_t>(row)] += i;
    if (inject_log_ != nullptr) inject_log_->emplace_back(row, i);
  }

  /// Record every applied injection (row, value) in call order, so the
  /// Newton solvers' partial restamp (DESIGN.md §12) can replay a linear
  /// device's RHS contributions with the exact same accumulation order.
  /// Null (the default) disables logging.
  void set_inject_log(std::vector<std::pair<int, double>>* log) {
    inject_log_ = log;
  }

  /// Switch into replay mode for one device's restamp (DESIGN.md §12):
  /// add() overwrites vals_ over the recorded triplet span
  /// [trip_begin, trip_end) after checking each recorded (row, col), and
  /// inject() accumulates into rhs_ after checking the recorded injection
  /// rows [inj_begin, inj_end) of `log`.  No allocation, no scratch copy —
  /// the restamp lands directly on the recorded slots.
  void begin_replay(int trip_begin, int trip_end,
                    const std::vector<std::pair<int, double>>* log,
                    int inj_begin, int inj_end) {
    replay_ = true;
    replay_failed_ = false;
    trip_cur_ = trip_begin;
    trip_end_ = trip_end;
    replay_log_ = log;
    inj_cur_ = inj_begin;
    inj_end_ = inj_end;
  }

  /// True when the replayed device reproduced the recorded stamp pattern
  /// exactly: every slot overwritten, every injection row matched, nothing
  /// extra.  False means the caller must fall back to a full assembly.
  [[nodiscard]] bool replay_matched() const {
    return !replay_failed_ && trip_cur_ == trip_end_ && inj_cur_ == inj_end_;
  }

 private:
  std::vector<int>& rows_;
  std::vector<int>& cols_;
  std::vector<double>& vals_;
  std::vector<double>& rhs_;
  std::vector<std::pair<int, double>>* inject_log_ = nullptr;
  // Replay-mode state (see begin_replay).
  bool replay_ = false;
  bool replay_failed_ = false;
  int trip_cur_ = 0, trip_end_ = 0;
  int inj_cur_ = 0, inj_end_ = 0;
  const std::vector<std::pair<int, double>>* replay_log_ = nullptr;
};

class AcStamper;

/// Abstract circuit element.
class Device {
 public:
  virtual ~Device() = default;

  /// Number of extra MNA unknowns (branch currents) this device needs.
  [[nodiscard]] virtual int num_branches() const { return 0; }

  /// Called once by MNA setup with the absolute row index of the device's
  /// first branch unknown (== node_count + offset).
  void assign_branch_row(int row) { branch_row_ = row; }
  [[nodiscard]] int branch_row() const { return branch_row_; }

  /// True if the device's stamp depends on the iterate (forces Newton loops).
  [[nodiscard]] virtual bool nonlinear() const { return false; }

  /// Stamp the linearisation at ctx.x into S.
  virtual void stamp(Stamper& s, const StampContext& ctx) = 0;

  /// Small-signal stamp at angular frequency `omega`, linearised at the DC
  /// operating point carried in `op`.  The default stamps nothing (open);
  /// every shipped device overrides this for AC analysis.
  virtual void stamp_ac(AcStamper& s, const StampContext& op, double omega);

  /// Number of independent noise generators in this device (default none).
  [[nodiscard]] virtual int num_noise_sources() const { return 0; }

  /// Inject the UNIT excitation of noise generator `k` into the AC
  /// right-hand side (matrix entries must not be touched) and return the
  /// generator's power spectral density (A^2/Hz for current generators,
  /// already folded through the device transfer for voltage generators).
  virtual double stamp_noise(AcStamper& s, const StampContext& op,
                             double omega, int k);

  /// Called when a timestep is accepted; devices with memory (capacitors,
  /// op-amp lag, memristor state) commit their state here.
  virtual void accept_step(const StampContext& /*ctx*/) {}

  /// Reset internal state to t = 0 conditions (before a new analysis).
  virtual void reset_state() {}

  [[nodiscard]] const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

 private:
  int branch_row_ = -1;
  std::string label_;
};

}  // namespace mda::spice
