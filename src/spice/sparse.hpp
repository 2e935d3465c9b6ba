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
#include <vector>


namespace mda::spice {

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

  /// Structural equality of two factorisations: same dimension, A pattern
  /// size, pivot order and L/U pattern (values ignored).  False unless both
  /// are factored.
  [[nodiscard]] static bool structure_equal(const SparseLu& x,
                                            const SparseLu& y);

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
  /// Shared body of refactor() / refactor_cold_exact(); `cold_exact` swaps
  /// the degradation guard for the cold pivot-scan equivalence check.
  bool refactor_impl(const CscMatrix& a, bool cold_exact);

  int n_ = 0;
  bool factored_ = false;
  bool bit_exact_ = false;
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

}  // namespace mda::spice
