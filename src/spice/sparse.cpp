#include "spice/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mda::spice {

CscMatrix CscMatrix::from_triplets(int n, const std::vector<int>& rows,
                                   const std::vector<int>& cols,
                                   const std::vector<double>& vals) {
  if (rows.size() != cols.size() || rows.size() != vals.size()) {
    throw std::invalid_argument("from_triplets: size mismatch");
  }
  CscMatrix m;
  m.n = n;
  m.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  const std::size_t nnz_in = vals.size();
  // Count entries per column.
  for (std::size_t k = 0; k < nnz_in; ++k) {
    ++m.col_ptr[static_cast<std::size_t>(cols[k]) + 1];
  }
  for (int c = 0; c < n; ++c) {
    m.col_ptr[static_cast<std::size_t>(c) + 1] +=
        m.col_ptr[static_cast<std::size_t>(c)];
  }
  m.row_idx.resize(nnz_in);
  m.values.resize(nnz_in);
  std::vector<int> next(m.col_ptr.begin(), m.col_ptr.end() - 1);
  for (std::size_t k = 0; k < nnz_in; ++k) {
    const int c = cols[k];
    const int dst = next[static_cast<std::size_t>(c)]++;
    m.row_idx[static_cast<std::size_t>(dst)] = rows[k];
    m.values[static_cast<std::size_t>(dst)] = vals[k];
  }
  // Sort each column by row and sum duplicates in place.
  std::vector<int> order;
  CscMatrix out;
  out.n = n;
  out.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  out.row_idx.reserve(nnz_in);
  out.values.reserve(nnz_in);
  for (int c = 0; c < n; ++c) {
    const int begin = m.col_ptr[static_cast<std::size_t>(c)];
    const int end = m.col_ptr[static_cast<std::size_t>(c) + 1];
    order.resize(static_cast<std::size_t>(end - begin));
    for (int k = begin; k < end; ++k) {
      order[static_cast<std::size_t>(k - begin)] = k;
    }
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      return m.row_idx[static_cast<std::size_t>(x)] <
             m.row_idx[static_cast<std::size_t>(y)];
    });
    int last_row = -1;
    for (int k : order) {
      const int r = m.row_idx[static_cast<std::size_t>(k)];
      const double v = m.values[static_cast<std::size_t>(k)];
      if (r == last_row) {
        out.values.back() += v;
      } else {
        out.row_idx.push_back(r);
        out.values.push_back(v);
        last_row = r;
      }
    }
    out.col_ptr[static_cast<std::size_t>(c) + 1] =
        static_cast<int>(out.row_idx.size());
  }
  return out;
}

void CscMatrix::multiply(const std::vector<double>& x,
                         std::vector<double>& y) const {
  y.assign(static_cast<std::size_t>(n), 0.0);
  for (int c = 0; c < n; ++c) {
    const double xc = x[static_cast<std::size_t>(c)];
    if (xc == 0.0) continue;
    for (int k = col_ptr[static_cast<std::size_t>(c)];
         k < col_ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      y[static_cast<std::size_t>(row_idx[static_cast<std::size_t>(k)])] +=
          values[static_cast<std::size_t>(k)] * xc;
    }
  }
}

void SparseLu::reset() {
  factored_ = false;
  a_nnz_ = 0;
  n_ = 0;
  pivot_mem_.clear();
}

bool SparseLu::factor(const CscMatrix& a) {
  n_ = a.n;
  const int n = n_;
  factored_ = false;
  a_nnz_ = static_cast<int>(a.values.size());
  l_colptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  u_colptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  l_rowidx_.clear();
  l_values_.clear();
  u_rowidx_.clear();
  u_values_.clear();
  perm_.assign(static_cast<std::size_t>(n), -1);
  pinv_.assign(static_cast<std::size_t>(n), -1);
  l_pivot_pos_.assign(static_cast<std::size_t>(n), 0);

  // Dense work vector (values by original row index) and visit marks.
  work_.assign(static_cast<std::size_t>(n), 0.0);
  mark_.assign(static_cast<std::size_t>(n), -1);
  std::vector<double>& work = work_;
  std::vector<int>& mark = mark_;
  std::vector<int> pattern;      // reach set, in reverse topological order
  std::vector<int> stack_node;   // DFS stacks
  std::vector<int> stack_edge;
  pattern.reserve(static_cast<std::size_t>(n));

  for (int j = 0; j < n; ++j) {
    // --- Symbolic: reachability of A(:,j) through the L structure. ---
    pattern.clear();
    for (int k = a.col_ptr[static_cast<std::size_t>(j)];
         k < a.col_ptr[static_cast<std::size_t>(j) + 1]; ++k) {
      int r = a.row_idx[static_cast<std::size_t>(k)];
      if (mark[static_cast<std::size_t>(r)] == j) continue;
      // Depth-first search from r following columns of L already computed.
      stack_node.clear();
      stack_edge.clear();
      stack_node.push_back(r);
      const int piv0 = pinv_[static_cast<std::size_t>(r)];
      stack_edge.push_back(piv0 >= 0 ? l_colptr_[static_cast<std::size_t>(piv0)]
                                     : -1);
      mark[static_cast<std::size_t>(r)] = j;
      while (!stack_node.empty()) {
        const int node = stack_node.back();
        int& edge = stack_edge.back();
        const int piv = pinv_[static_cast<std::size_t>(node)];
        bool descended = false;
        if (piv >= 0) {
          const int end = l_colptr_[static_cast<std::size_t>(piv) + 1];
          while (edge < end) {
            const int child = l_rowidx_[static_cast<std::size_t>(edge)];
            ++edge;
            if (mark[static_cast<std::size_t>(child)] != j) {
              mark[static_cast<std::size_t>(child)] = j;
              stack_node.push_back(child);
              const int cpiv = pinv_[static_cast<std::size_t>(child)];
              stack_edge.push_back(
                  cpiv >= 0 ? l_colptr_[static_cast<std::size_t>(cpiv)] : -1);
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          pattern.push_back(node);  // post-order => reverse topological
          stack_node.pop_back();
          stack_edge.pop_back();
        }
      }
    }
    // --- Numeric: sparse triangular solve x = L \ A(:,j). ---
    for (int r : pattern) work[static_cast<std::size_t>(r)] = 0.0;
    for (int k = a.col_ptr[static_cast<std::size_t>(j)];
         k < a.col_ptr[static_cast<std::size_t>(j) + 1]; ++k) {
      work[static_cast<std::size_t>(a.row_idx[static_cast<std::size_t>(k)])] =
          a.values[static_cast<std::size_t>(k)];
    }
    // Process in topological order (reverse of post-order list).
    for (auto it = pattern.rbegin(); it != pattern.rend(); ++it) {
      const int r = *it;
      const int piv = pinv_[static_cast<std::size_t>(r)];
      if (piv < 0) continue;  // row not yet pivotal: stays in L part
      const double xr = work[static_cast<std::size_t>(r)];
      if (xr == 0.0) continue;
      for (int k = l_colptr_[static_cast<std::size_t>(piv)];
           k < l_colptr_[static_cast<std::size_t>(piv) + 1]; ++k) {
        work[static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(k)])] -=
            l_values_[static_cast<std::size_t>(k)] * xr;
      }
    }

    // --- Pivot: partial pivoting with sticky pivot memory. ---
    // Plain magnitude pivoting picks an excellent (low-fill) pivot sequence
    // under DC operating-point values, but transient values — dominated by
    // huge C/dt companion conductances — steer the argmax towards a
    // catastrophically filled ordering (20x worse on large arrays), and its
    // winner races between near-tied rows as Newton values drift by ULPs.
    // So a repivoting factor() prefers the pivot the *previous* successful
    // factor() chose for this column whenever that row is still available
    // and within threshold_pivot_ratio of the magnitude winner (the
    // SuperLU/SPICE threshold-pivoting rule); only genuinely degraded
    // columns fall back to the argmax.  Fill stays at the quality of the
    // first factorisation and pivots become stable across Newton value
    // drift, which is what makes refactor() reuse pay off.
    int pivot_row = -1;
    double max_abs = 0.0;
    for (int r : pattern) {
      if (pinv_[static_cast<std::size_t>(r)] >= 0) continue;
      const double v = std::abs(work[static_cast<std::size_t>(r)]);
      if (v > max_abs) {
        max_abs = v;
        pivot_row = r;
      }
    }
    if (pivot_row < 0 || max_abs < 1e-300) return false;  // singular
    if (static_cast<int>(pivot_mem_.size()) == n) {
      const int prev = pivot_mem_[static_cast<std::size_t>(j)];
      if (prev >= 0 && prev != pivot_row &&
          mark[static_cast<std::size_t>(prev)] == j &&
          pinv_[static_cast<std::size_t>(prev)] < 0 &&
          std::abs(work[static_cast<std::size_t>(prev)]) >=
              threshold_pivot_ratio * max_abs) {
        pivot_row = prev;
      }
    }
    perm_[static_cast<std::size_t>(j)] = pivot_row;
    pinv_[static_cast<std::size_t>(pivot_row)] = j;
    const double pivot_val = work[static_cast<std::size_t>(pivot_row)];

    // --- Store U(:,j) (pivotal rows) and L(:,j) (non-pivotal / pivot_row). ---
    // Both are stored in the topological order processed above, so
    // refactor() can drive its elimination straight from U(:,j).  Exact
    // zeros are stored too: the L/U structure must depend only on the A
    // pattern and the pivot sequence (never on values) so that the stored
    // pattern is always the full reach set.  A stored 0.0 only ever
    // contributes `x -= 0.0 * y` updates downstream, which leave every
    // nonzero bit pattern untouched.
    for (auto it = pattern.rbegin(); it != pattern.rend(); ++it) {
      const int r = *it;
      const double v = work[static_cast<std::size_t>(r)];
      const int piv = pinv_[static_cast<std::size_t>(r)];
      if (r == pivot_row) {
        l_pivot_pos_[static_cast<std::size_t>(j)] =
            static_cast<int>(l_rowidx_.size()) -
            l_colptr_[static_cast<std::size_t>(j)];
        continue;
      }
      if (piv >= 0 && piv < j) {
        u_rowidx_.push_back(piv);
        u_values_.push_back(v);
      } else {
        l_rowidx_.push_back(r);
        l_values_.push_back(v / pivot_val);
      }
    }
    // Diagonal of U last in the column (handy for back-substitution).
    u_rowidx_.push_back(j);
    u_values_.push_back(pivot_val);
    l_colptr_[static_cast<std::size_t>(j) + 1] =
        static_cast<int>(l_rowidx_.size());
    u_colptr_[static_cast<std::size_t>(j) + 1] =
        static_cast<int>(u_rowidx_.size());
  }
  factored_ = true;
  pivot_mem_ = perm_;
  return true;
}

bool SparseLu::refactor(const CscMatrix& a) { return refactor_impl(a, false); }

bool SparseLu::refactor_cold_exact(const CscMatrix& a) {
  return refactor_impl(a, true);
}

bool SparseLu::refactor_impl(const CscMatrix& a, bool cold_exact) {
  if (!factored_ || a.n != n_ ||
      static_cast<int>(a.values.size()) != a_nnz_) {
    return false;
  }
  const int n = n_;
  // Any early return below leaves partially overwritten L/U values; mark the
  // factorisation stale so a full factor() is required before solving.
  factored_ = false;
  std::vector<double>& work = work_;

  for (int j = 0; j < n; ++j) {
    const int u0 = u_colptr_[static_cast<std::size_t>(j)];
    const int udiag = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    const int l0 = l_colptr_[static_cast<std::size_t>(j)];
    const int l1 = l_colptr_[static_cast<std::size_t>(j) + 1];
    const int prow = perm_[static_cast<std::size_t>(j)];
    // Column j's reach set is exactly the rows of U(:,j) (the diagonal's
    // row is the pivot row) plus those of L(:,j): zero it, load A(:,j).
    for (int k = u0; k <= udiag; ++k) {
      work[static_cast<std::size_t>(
          perm_[static_cast<std::size_t>(u_rowidx_[static_cast<std::size_t>(k)])])] =
          0.0;
    }
    for (int k = l0; k < l1; ++k) {
      work[static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(k)])] = 0.0;
    }
    for (int k = a.col_ptr[static_cast<std::size_t>(j)];
         k < a.col_ptr[static_cast<std::size_t>(j) + 1]; ++k) {
      work[static_cast<std::size_t>(a.row_idx[static_cast<std::size_t>(k)])] =
          a.values[static_cast<std::size_t>(k)];
    }
    // Eliminate over U(:,j): factor() stored its entries in the topological
    // order it processed the pivotal rows, so this repeats its arithmetic.
    for (int k = u0; k < udiag; ++k) {
      const int piv = u_rowidx_[static_cast<std::size_t>(k)];
      const double xr =
          work[static_cast<std::size_t>(perm_[static_cast<std::size_t>(piv)])];
      if (xr == 0.0) continue;
      for (int q = l_colptr_[static_cast<std::size_t>(piv)];
           q < l_colptr_[static_cast<std::size_t>(piv) + 1]; ++q) {
        work[static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(q)])] -=
            l_values_[static_cast<std::size_t>(q)] * xr;
      }
    }

    // Inherited pivot guard over the pivot candidates (the pivot row plus
    // L(:,j)'s rows), two severities: the relative threshold rejects a
    // numerically degraded pivot (KLU semantics, the default); bit-exact
    // mode raises the bar to the ratio at which a repivoting factor() would
    // drop this pivot.
    const double pivot_val = work[static_cast<std::size_t>(prow)];
    const double pivot_abs = std::abs(pivot_val);
    if (cold_exact) {
      // Cold-equivalence guard: rerun factor()'s pivot scan exactly — strict
      // > in its post-order, i.e. L(:,j) backwards with the pivot row at its
      // recorded position — and demand it lands on the inherited pivot row.
      // An empty pivot memory plays no part in that scan, so success means a
      // cold factor() would have chosen these very pivots and therefore run
      // this very arithmetic.
      const int split = l0 + l_pivot_pos_[static_cast<std::size_t>(j)];
      int argmax_row = -1;
      double max_abs = 0.0;
      const auto scan = [&](int r) {
        const double v = std::abs(work[static_cast<std::size_t>(r)]);
        if (v > max_abs) {
          max_abs = v;
          argmax_row = r;
        }
      };
      for (int k = l1 - 1; k >= split; --k) {
        scan(l_rowidx_[static_cast<std::size_t>(k)]);
      }
      scan(prow);
      for (int k = split - 1; k >= l0; --k) {
        scan(l_rowidx_[static_cast<std::size_t>(k)]);
      }
      if (argmax_row != prow || max_abs < 1e-300) {
        return false;  // a cold factor() would pivot differently
      }
    } else {
      double cand_abs = pivot_abs > 0.0 ? pivot_abs : 0.0;  // NaN skipped
      for (int k = l0; k < l1; ++k) {
        const double v = std::abs(
            work[static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(k)])]);
        if (v > cand_abs) cand_abs = v;
      }
      // Degradation guard.  In bit-exact mode the bar is threshold_pivot_ratio
      // itself: a fresh factor() prefers this very pivot (its pivot memory)
      // exactly as long as it clears that ratio, so passing the guard means
      // the replay repeats a fresh factor()'s arithmetic bit for bit.  The
      // default bar is the looser KLU-style pivot_degradation_tol: the column
      // stays numerically sound even though a repivoting factor() would have
      // switched to the magnitude winner.
      const double bar =
          bit_exact_ ? threshold_pivot_ratio : pivot_degradation_tol;
      if (pivot_abs < 1e-300 || pivot_abs < bar * cand_abs) {
        return false;  // pivot degraded
      }
    }

    // Write the new values in place.  factor() stores exact zeros, so the
    // stored pattern is the whole reach set and every slot is refreshed.
    for (int k = u0; k < udiag; ++k) {
      u_values_[static_cast<std::size_t>(k)] = work[static_cast<std::size_t>(
          perm_[static_cast<std::size_t>(u_rowidx_[static_cast<std::size_t>(k)])])];
    }
    u_values_[static_cast<std::size_t>(udiag)] = pivot_val;
    for (int k = l0; k < l1; ++k) {
      l_values_[static_cast<std::size_t>(k)] =
          work[static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(k)])] /
          pivot_val;
    }
  }
  factored_ = true;
  return true;
}

void SparseLu::solve(std::vector<double>& b) {
  const int n = n_;
  // Forward solve L y = P b, where rows of L are in original indices and the
  // pivotal order is perm_.  y is indexed by pivot position.
  solve_y_.resize(static_cast<std::size_t>(n));
  std::vector<double>& y = solve_y_;
  // Work in "original row" space: w starts as b; eliminate in pivot order.
  solve_w_.assign(b.begin(), b.end());
  std::vector<double>& w = solve_w_;
  for (int j = 0; j < n; ++j) {
    const int prow = perm_[static_cast<std::size_t>(j)];
    const double yj = w[static_cast<std::size_t>(prow)];
    y[static_cast<std::size_t>(j)] = yj;
    if (yj == 0.0) continue;
    for (int k = l_colptr_[static_cast<std::size_t>(j)];
         k < l_colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      w[static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(k)])] -=
          l_values_[static_cast<std::size_t>(k)] * yj;
    }
  }
  // Backward solve U x = y (U stored columnwise with diagonal last).
  std::vector<double>& x = b;
  x.assign(static_cast<std::size_t>(n), 0.0);
  for (int j = n - 1; j >= 0; --j) {
    const int last = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    const double diag = u_values_[static_cast<std::size_t>(last)];
    const double xj = y[static_cast<std::size_t>(j)] / diag;
    x[static_cast<std::size_t>(j)] = xj;
    if (xj == 0.0) continue;
    for (int k = u_colptr_[static_cast<std::size_t>(j)]; k < last; ++k) {
      y[static_cast<std::size_t>(u_rowidx_[static_cast<std::size_t>(k)])] -=
          u_values_[static_cast<std::size_t>(k)] * xj;
    }
  }
}

bool SparseLu::structure_equal(const SparseLu& x, const SparseLu& y) {
  return x.factored_ && y.factored_ && x.n_ == y.n_ && x.a_nnz_ == y.a_nnz_ &&
         x.perm_ == y.perm_ && x.l_colptr_ == y.l_colptr_ &&
         x.l_rowidx_ == y.l_rowidx_ && x.u_colptr_ == y.u_colptr_ &&
         x.u_rowidx_ == y.u_rowidx_;
}

}  // namespace mda::spice
