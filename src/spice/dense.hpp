#pragma once
// Small dense LU with partial pivoting.  Used for tiny systems (single
// blocks, device characterisation) and as a cross-check for the sparse path.

#include <cstddef>
#include <vector>

#include "spice/batch_state.hpp"

namespace mda::spice {

class DenseLu {
 public:
  /// Factor the n-by-n row-major matrix `a` (copied).  Returns false if
  /// singular.  Reuses internal buffers across calls — factoring repeatedly
  /// at the same dimension allocates nothing.
  bool factor(int n, const std::vector<double>& a);

  /// Solve in place.
  void solve(std::vector<double>& b);

  [[nodiscard]] int dimension() const { return n_; }

 private:
  int n_ = 0;
  std::vector<double> lu_;   ///< Row-major combined LU factors.
  std::vector<int> perm_;    ///< Row permutation.
  std::vector<double> y_;    ///< Forward-substitution workspace.
};

/// Batched DenseLu over B lanes of one n-by-n system shape (DESIGN.md §12):
/// lane-major SoA storage, per-lane partial pivoting (pivot choice is
/// value-dependent, so each lane keeps its own row permutation applied as
/// physical lane-local swaps) and vectorized elimination/substitution sweeps.
/// Per lane, factor()'s ok verdict and the solution read back by
/// store_lane_solution() are bit-identical to DenseLu::factor() + solve() on
/// that lane alone; kernel choice (AVX2 / portable scalar) follows
/// util::use_avx2() and never changes a result bit.  A lane that fails
/// (singular) keeps computing garbage without perturbing siblings.
class BatchedDenseLu {
 public:
  /// Size the batch: n-by-n systems, `lanes` lanes (values zeroed).
  void resize(int n, std::size_t lanes);

  /// Stage one lane's row-major matrix / right-hand side.
  void load_lane_matrix(std::size_t lane, const std::vector<double>& a);
  void load_lane_rhs(std::size_t lane, const std::vector<double>& b);

  /// Batched factor; ok[lane] matches DenseLu::factor() on that lane.
  void factor(unsigned char* ok);
  /// Batched solve of the staged right-hand sides (lanes with ok only).
  void solve();
  void store_lane_solution(std::size_t lane, std::vector<double>& x) const;

  [[nodiscard]] int dimension() const { return n_; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }

 private:
  void factor_scalar(unsigned char* ok);
  void solve_scalar();
#if defined(__x86_64__)
  void factor_avx2(unsigned char* ok);
  void solve_avx2();
#endif

  int n_ = 0;
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;
  batch::SoaBuffer lu_;      ///< Element (r, c) at row r * n + c.
  batch::SoaBuffer b_, y_;
  std::vector<int> perm_;    ///< Lane-major: perm_[i * lanes + lane].
};

}  // namespace mda::spice
