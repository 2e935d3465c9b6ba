#pragma once
// Sparse linear algebra for MNA: triplet assembly, CSC conversion, and a
// left-looking (Gilbert-Peierls) LU factorisation with partial pivoting.
//
// Circuit matrices are extremely sparse (a handful of entries per row) and
// moderately sized (up to ~10^5 unknowns for full-array netlists), which this
// implementation handles comfortably without external dependencies.
//
// Newton iterations change matrix *values*, never the sparsity pattern, so
// SparseLu splits the classic analyze+factor step from a value-only
// refactor(): the pivot order and L/U pattern from the last full factor()
// are replayed against the new values, each column's elimination driven
// from its stored U pattern (the KLU refactor loop).
// A refactor refuses — and the caller falls back to a full repivoting
// factor() — when the inherited pivot degrades below a relative threshold.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spice/batch_state.hpp"

namespace mda::spice {

class BatchedSparseLu;

/// Compressed sparse column matrix.
struct CscMatrix {
  int n = 0;                  ///< Square dimension.
  std::vector<int> col_ptr;   ///< Size n+1.
  std::vector<int> row_idx;   ///< Size nnz.
  std::vector<double> values; ///< Size nnz.

  /// Build from triplets, summing duplicates.
  static CscMatrix from_triplets(int n, const std::vector<int>& rows,
                                 const std::vector<int>& cols,
                                 const std::vector<double>& vals);

  /// y = A * x.
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;
};

/// Sparse LU with partial pivoting (Gilbert-Peierls).  Factor once, solve
/// many right-hand sides; refactor when only the values changed.
class SparseLu {
 public:
  /// Factor A with fresh partial pivoting.  Returns false if the matrix is
  /// numerically singular.
  bool factor(const CscMatrix& a);

  /// Re-factor a matrix with the same sparsity pattern as the last
  /// successful factor(), reusing its pivot order and L/U structure — no
  /// symbolic analysis, no pivot search, no allocation.  Returns false (and
  /// leaves the factorisation invalid — call factor()) when:
  ///  * no prior factor() succeeded, or the pattern fingerprint mismatches;
  ///  * the inherited pivot magnitude in some column drops below
  ///    `pivot_degradation_tol` times the best candidate a fresh
  ///    partial-pivoting scan would consider (KLU-style guard);
  ///  * in bit-exact mode (set_bit_exact), the bar rises to
  ///    `threshold_pivot_ratio` — the exact ratio at which a repivoting
  ///    factor() would stop keeping this pivot (sticky pivot memory), so a
  ///    successful bit-exact refactor provably replays the same pivots.
  /// Whenever the inherited pivots coincide with what a fresh factor()
  /// would pick (always true on success in bit-exact mode), the L/U factors
  /// are bit-identical to factor()'s: U(:,j) is stored in factor()'s
  /// topological order, so walking it repeats the exact same arithmetic
  /// sequence.
  bool refactor(const CscMatrix& a);

  /// Value-only refactor that is provably bit-identical to a *cold* full
  /// factor() — one on a freshly constructed SparseLu with empty pivot
  /// memory.  Per column it re-runs factor()'s exact pivot scan (same
  /// post-order traversal, strict >, ties to the first row in post-order)
  /// over the replayed values and succeeds only when the scan lands on the
  /// inherited pivot row, in which case the replay repeats a cold
  /// factor()'s arithmetic sequence bit for bit.
  /// Returns false (factorisation left invalid) as soon as any column's
  /// argmax moved; the caller must then reset() and factor() so pivot
  /// memory cannot leak into the fallback.  Used by the cross-query
  /// instance cache (DESIGN.md §11) to re-enter a stream query without
  /// paying the symbolic analysis + pivot search, while preserving the
  /// cached == fresh-build bit-identity contract.
  bool refactor_cold_exact(const CscMatrix& a);

  /// Solve A x = b (b is overwritten with x).  Requires a prior successful
  /// factor() / refactor().
  void solve(std::vector<double>& b);

  [[nodiscard]] int dimension() const { return n_; }

  /// nnz(L+U) of the last factor(): strictly-lower L plus U with diagonal.
  [[nodiscard]] std::size_t nnz() const {
    return l_rowidx_.size() + u_rowidx_.size();
  }

  /// L (strictly lower, unit diagonal implied) and U (diagonal last per
  /// column) values in storage order, for bitwise comparisons of two
  /// factorisations of one structure.
  [[nodiscard]] const std::vector<double>& l_values() const {
    return l_values_;
  }
  [[nodiscard]] const std::vector<double>& u_values() const {
    return u_values_;
  }

  /// Strict mode: refactor() additionally bails whenever a fresh pivot scan
  /// would pick a different row (see Tolerances::lu_refactor_bit_exact).
  void set_bit_exact(bool on) { bit_exact_ = on; }

  /// Forget all numeric state — factorisation, pattern fingerprint and the
  /// sticky pivot memory — so the next factor() behaves exactly like one on
  /// a freshly constructed SparseLu.  Allocations are kept.  Used by the
  /// cross-query instance cache (DESIGN.md §11): pivot memory influences
  /// subsequent pivot choices, so it must not leak between queries that are
  /// contractually bit-identical to cold runs.
  void reset();

  /// Monotone generation counter for the L/U *structure* (pivot order and
  /// pattern): bumped whenever factor() or reset() may change it, and never
  /// by value-only refactors.  Lets the batched solver skip O(nnz)
  /// structure comparisons while the epoch is unchanged.
  [[nodiscard]] std::uint64_t factor_epoch() const { return factor_epoch_; }

  /// True when a factorisation is available for solve()/refactor().
  [[nodiscard]] bool factored() const { return factored_; }

  /// Relative pivot threshold below which refactor() bails out (KLU uses a
  /// comparable growth guard before repivoting).
  static constexpr double pivot_degradation_tol = 1e-3;

  /// Sticky-pivot acceptance ratio (the SuperLU/SPICE threshold-pivoting
  /// relaxation): a repivoting factor() keeps the pivot row the previous
  /// successful factor() chose for a column whenever its magnitude is at
  /// least this fraction of the column maximum, falling back to the
  /// magnitude winner only for genuinely degraded columns.  Keeps fill at
  /// first-factorisation quality (transient C/dt values steer a plain
  /// argmax into ~20x worse orderings on large arrays) and makes the pivot
  /// sequence stable across Newton value drift.  Also the refactor() bail
  /// bar in bit-exact mode.
  static constexpr double threshold_pivot_ratio = 0.1;

 private:
  friend class BatchedSparseLu;

  /// Shared body of refactor() / refactor_cold_exact(); `cold_exact` swaps
  /// the degradation guard for the cold pivot-scan equivalence check.
  bool refactor_impl(const CscMatrix& a, bool cold_exact);

  int n_ = 0;
  bool factored_ = false;
  bool bit_exact_ = false;
  std::uint64_t factor_epoch_ = 0;
  int a_nnz_ = 0;  ///< nnz of the factored matrix (pattern fingerprint).
  // L is unit-lower-triangular, U upper-triangular, both in CSC over the
  // pivoted row ordering; perm_[k] = original row chosen as pivot k.  Within
  // a column, L rows (original indices) and U rows (pivot positions) are in
  // the topological order factor() eliminated them, U's diagonal last.
  std::vector<int> l_colptr_, l_rowidx_;
  std::vector<double> l_values_;
  std::vector<int> u_colptr_, u_rowidx_;
  std::vector<double> u_values_;
  std::vector<int> perm_;   ///< pivot position -> original row
  std::vector<int> pinv_;   ///< original row -> pivot position (or -1)
  /// Pivot rows of the last successful factor(), preferred (when still
  /// numerically acceptable) by the next factor() — see
  /// threshold_pivot_ratio.  Survives refactor() bail-outs.
  std::vector<int> pivot_mem_;
  /// Per column: how many of L(:,j)'s rows precede the pivot row in that
  /// topological order — enough for refactor_cold_exact() to rebuild
  /// factor()'s post-order pivot scan, tie-break included.
  std::vector<int> l_pivot_pos_;
  // Reusable workspaces (factor/refactor numeric sweep and solve).
  std::vector<double> work_;
  std::vector<int> mark_;
  std::vector<double> solve_y_, solve_w_;
};

/// Batched value-only refactor + solve over B lanes that share one L/U
/// structure (DESIGN.md §12).  The structure — pivot order, L/U pattern
/// and A pattern — is adopted from one lane's factored SparseLu; per-lane
/// values live in lane-major SoA buffers so the inner loops touch the
/// (shared) index streams once per element and the values of all lanes
/// with one vector op.
///
/// Bit-identity contract: for every lane, refactor()'s ok verdict and — when
/// ok — the solution read back by store_lane_solution() are bit-identical to
/// running SparseLu::refactor() + solve() on that lane alone.  Both kernels
/// (AVX2 and portable scalar, chosen by util::use_avx2()) execute the exact
/// per-lane arithmetic sequence of the scalar solver: lanes never mix, FP
/// contraction is off, and scalar control flow that depends on values
/// (zero-entry skips, the pivot-candidate max scan, the degradation guard)
/// is replicated with IEEE-ordered compares and blends whose NaN behaviour
/// matches the scalar comparisons.
///
/// A lane whose guard fails is reported via ok and computes garbage from
/// that column on (lanes are independent, so siblings are unperturbed); the
/// caller re-runs that lane through the scalar path, which reproduces the
/// serial fallback arithmetic and metrics exactly.
class BatchedSparseLu {
 public:
  /// Adopt `ref`'s structure for a batch over matrices with A pattern `a`,
  /// sized for `lanes` lanes.  Returns false when ref has no factorisation
  /// or its pattern fingerprint does not match `a`.
  bool adopt(const SparseLu& ref, const CscMatrix& a, std::size_t lanes);

  /// Structural equality of two factorisations: same pivot order and L/U
  /// pattern (values ignored).  O(nnz) — callers memoize via
  /// SparseLu::factor_epoch().
  [[nodiscard]] static bool structure_equal(const SparseLu& x,
                                            const SparseLu& y);

  /// Stage one lane's A values / right-hand side into the SoA buffers.
  /// `a` must have the adopted pattern; `b` the adopted dimension.
  void load_lane_values(std::size_t lane, const CscMatrix& a);
  void load_lane_rhs(std::size_t lane, const std::vector<double>& b);

  /// True when this solver's adopted structure equals `ref`'s current
  /// factorisation over A pattern `a`: same dimension, pivot order, L/U
  /// pattern, A pattern and bit-exact bar.  Compares against the solver's
  /// own stored copies, so it is safe even when the instance originally
  /// adopted from no longer exists.
  [[nodiscard]] bool holds_structure_of(const SparseLu& ref,
                                        const CscMatrix& a) const;

  /// Change the lane count without re-adopting structure.  Cheap when the
  /// padded stride is unchanged (the common case as lanes of a batch retire:
  /// any count in (0, kSimdLanes] shares one stride); reallocates the SoA
  /// buffers only when the stride actually changes.  Requires a prior
  /// successful adopt().
  void resize_lanes(std::size_t lanes);

  /// Batched refactor of all lanes; ok[lane] matches what
  /// SparseLu::refactor() would return for that lane's values (with the
  /// bit-exact bar adopted from the reference).
  void refactor(unsigned char* ok);

  /// Batched forward/backward solve over the staged right-hand sides.
  /// Valid only for lanes whose refactor succeeded.
  void solve();
  void store_lane_solution(std::size_t lane, std::vector<double>& x) const;

  [[nodiscard]] int dimension() const { return n_; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }

 private:
  void refactor_scalar(unsigned char* ok);
  void solve_scalar();
  /// Work-vector row (original row index) of U entry k and of L entry k.
  [[nodiscard]] std::size_t u_work_row(int k) const {
    return static_cast<std::size_t>(perm_[static_cast<std::size_t>(
        u_rowidx_[static_cast<std::size_t>(k)])]);
  }
  [[nodiscard]] std::size_t l_work_row(int k) const {
    return static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(k)]);
  }
#if defined(__x86_64__)
  void refactor_avx2(unsigned char* ok);
  void solve_avx2();
  // 512-bit variants: one op per 8 lanes at the same instruction count as
  // the 256-bit kernels, chosen when the stride is a whole number of
  // 512-bit blocks.  Same per-lane arithmetic; compares produce native
  // masks instead of blend vectors.
  void refactor_avx512(unsigned char* ok);
  void solve_avx512();
#endif

  int n_ = 0;
  int a_nnz_ = 0;
  bool bit_exact_ = false;
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;
  // Shared structure (copied from the adopted SparseLu / A pattern).
  std::vector<int> l_colptr_, l_rowidx_;
  std::vector<int> u_colptr_, u_rowidx_;
  std::vector<int> perm_;
  std::vector<int> a_colptr_, a_rowidx_;
  // Lane-major values: A, L, U, the elimination work vector, rhs/solution
  // and the forward-substitution workspaces.
  batch::SoaBuffer av_, lv_, uv_, work_, b_, y_, w_;
};

}  // namespace mda::spice
