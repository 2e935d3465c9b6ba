#include "spice/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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
  ++factor_epoch_;
}

bool SparseLu::factor(const CscMatrix& a) {
  n_ = a.n;
  const int n = n_;
  factored_ = false;
  ++factor_epoch_;  // the structure below is rebuilt from scratch
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

// ---------------------------------------------------------------------------
// BatchedSparseLu
//
// Both kernels below replay SparseLu::refactor_impl(cold_exact=false) and
// SparseLu::solve per lane, with the shared index streams hoisted out of the
// lane dimension.  The bit-identity argument (DESIGN.md §12) rests on three
// invariants the kernels maintain:
//  * lanes never mix — every operation is elementwise over the lane axis;
//  * each lane's arithmetic sequence (order of loads, subtractions,
//    multiplies, divides; no FMA contraction) equals the scalar solver's;
//  * value-dependent scalar control flow is replicated per lane: the
//    `x == 0.0` elimination/substitution skips become EQ_OQ blends, the
//    pivot-candidate scan's `v > cand` (which skips NaNs) becomes a GT_OQ
//    blend, and the guard's `<` comparisons use LT_OQ so a NaN pivot passes
//    exactly as it does in the scalar code.
// A guard failure only clears ok[lane]; the lane keeps computing (garbage)
// so siblings are unperturbed, and the caller reruns it through the scalar
// fallback path.
// ---------------------------------------------------------------------------

bool BatchedSparseLu::structure_equal(const SparseLu& x, const SparseLu& y) {
  return x.factored_ && y.factored_ && x.n_ == y.n_ && x.a_nnz_ == y.a_nnz_ &&
         x.perm_ == y.perm_ && x.l_colptr_ == y.l_colptr_ &&
         x.l_rowidx_ == y.l_rowidx_ && x.u_colptr_ == y.u_colptr_ &&
         x.u_rowidx_ == y.u_rowidx_;
}

bool BatchedSparseLu::holds_structure_of(const SparseLu& ref,
                                         const CscMatrix& a) const {
  return ref.factored_ && n_ == ref.n_ && a_nnz_ == ref.a_nnz_ &&
         bit_exact_ == ref.bit_exact_ && perm_ == ref.perm_ &&
         l_colptr_ == ref.l_colptr_ && l_rowidx_ == ref.l_rowidx_ &&
         u_colptr_ == ref.u_colptr_ && u_rowidx_ == ref.u_rowidx_ &&
         a_colptr_ == a.col_ptr && a_rowidx_ == a.row_idx;
}

bool BatchedSparseLu::adopt(const SparseLu& ref, const CscMatrix& a,
                            std::size_t lanes) {
  if (!ref.factored_ || a.n != ref.n_ ||
      static_cast<int>(a.values.size()) != ref.a_nnz_ || lanes == 0) {
    return false;
  }
  n_ = ref.n_;
  a_nnz_ = ref.a_nnz_;
  bit_exact_ = ref.bit_exact_;
  lanes_ = lanes;
  stride_ = batch::padded_lanes(lanes);
  l_colptr_ = ref.l_colptr_;
  l_rowidx_ = ref.l_rowidx_;
  u_colptr_ = ref.u_colptr_;
  u_rowidx_ = ref.u_rowidx_;
  perm_ = ref.perm_;
  a_colptr_ = a.col_ptr;
  a_rowidx_ = a.row_idx;
  const auto n = static_cast<std::size_t>(n_);
  av_.resize(static_cast<std::size_t>(a_nnz_), lanes);
  lv_.resize(ref.l_values_.size(), lanes);
  uv_.resize(ref.u_values_.size(), lanes);
  work_.resize(n, lanes);
  b_.resize(n, lanes);
  y_.resize(n, lanes);
  w_.resize(n, lanes);
  return true;
}

void BatchedSparseLu::resize_lanes(std::size_t lanes) {
  lanes_ = lanes;
  const std::size_t s = batch::padded_lanes(lanes);
  if (s == stride_) return;  // same padded stride: buffers already fit
  stride_ = s;
  const auto n = static_cast<std::size_t>(n_);
  av_.resize(static_cast<std::size_t>(a_nnz_), lanes);
  lv_.resize(static_cast<std::size_t>(l_colptr_.back()), lanes);
  uv_.resize(static_cast<std::size_t>(u_colptr_.back()), lanes);
  work_.resize(n, lanes);
  b_.resize(n, lanes);
  y_.resize(n, lanes);
  w_.resize(n, lanes);
}

void BatchedSparseLu::load_lane_values(std::size_t lane, const CscMatrix& a) {
  double* dst = av_.data() + lane;
  for (std::size_t k = 0; k < a.values.size(); ++k) {
    dst[k * stride_] = a.values[k];
  }
}

void BatchedSparseLu::load_lane_rhs(std::size_t lane,
                                    const std::vector<double>& b) {
  double* dst = b_.data() + lane;
  for (std::size_t i = 0; i < b.size(); ++i) {
    dst[i * stride_] = b[i];
  }
}

void BatchedSparseLu::store_lane_solution(std::size_t lane,
                                          std::vector<double>& x) const {
  x.resize(static_cast<std::size_t>(n_));
  const double* src = b_.data() + lane;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = src[i * stride_];
  }
}

void BatchedSparseLu::refactor(unsigned char* ok) {
#if defined(__x86_64__)
  if (stride_ % 8 == 0 && util::use_avx512()) {
    refactor_avx512(ok);
    return;
  }
  if (util::use_avx2()) {
    refactor_avx2(ok);
    return;
  }
#endif
  refactor_scalar(ok);
}

void BatchedSparseLu::solve() {
#if defined(__x86_64__)
  if (stride_ % 8 == 0 && util::use_avx512()) {
    solve_avx512();
    return;
  }
  if (util::use_avx2()) {
    solve_avx2();
    return;
  }
#endif
  solve_scalar();
}

void BatchedSparseLu::refactor_scalar(unsigned char* ok) {
  const std::size_t L = lanes_;
  const double bar = bit_exact_ ? SparseLu::threshold_pivot_ratio
                                : SparseLu::pivot_degradation_tol;
  std::fill(ok, ok + L, 1);
  for (int j = 0; j < n_; ++j) {
    const int u0 = u_colptr_[static_cast<std::size_t>(j)];
    const int udiag = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    const int l0 = l_colptr_[static_cast<std::size_t>(j)];
    const int l1 = l_colptr_[static_cast<std::size_t>(j) + 1];
    for (int k = u0; k <= udiag; ++k) {
      double* wr = work_.row(u_work_row(k));
      for (std::size_t l = 0; l < L; ++l) wr[l] = 0.0;
    }
    for (int k = l0; k < l1; ++k) {
      double* wr = work_.row(l_work_row(k));
      for (std::size_t l = 0; l < L; ++l) wr[l] = 0.0;
    }
    for (int k = a_colptr_[static_cast<std::size_t>(j)];
         k < a_colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      double* wr = work_.row(
          static_cast<std::size_t>(a_rowidx_[static_cast<std::size_t>(k)]));
      const double* avk = av_.row(static_cast<std::size_t>(k));
      for (std::size_t l = 0; l < L; ++l) wr[l] = avk[l];
    }
    for (int k = u0; k < udiag; ++k) {
      const int piv = u_rowidx_[static_cast<std::size_t>(k)];
      const double* xr = work_.row(u_work_row(k));
      bool any = false;
      for (std::size_t l = 0; l < L; ++l) any = any || xr[l] != 0.0;
      if (!any) continue;
      for (int q = l_colptr_[static_cast<std::size_t>(piv)];
           q < l_colptr_[static_cast<std::size_t>(piv) + 1]; ++q) {
        double* wu = work_.row(l_work_row(q));
        const double* lvq = lv_.row(static_cast<std::size_t>(q));
        for (std::size_t l = 0; l < L; ++l) {
          if (xr[l] != 0.0) wu[l] -= lvq[l] * xr[l];
        }
      }
    }
    const double* pv =
        work_.row(static_cast<std::size_t>(perm_[static_cast<std::size_t>(j)]));
    for (std::size_t l = 0; l < L; ++l) {
      const double pivot_abs = std::abs(pv[l]);
      double cand_abs = pivot_abs > 0.0 ? pivot_abs : 0.0;
      for (int k = l0; k < l1; ++k) {
        const double v = std::abs(work_.row(l_work_row(k))[l]);
        if (v > cand_abs) cand_abs = v;
      }
      if (pivot_abs < 1e-300 || pivot_abs < bar * cand_abs) ok[l] = 0;
    }
    for (int k = u0; k < udiag; ++k) {
      double* u = uv_.row(static_cast<std::size_t>(k));
      const double* wr = work_.row(u_work_row(k));
      for (std::size_t l = 0; l < L; ++l) u[l] = wr[l];
    }
    double* ud = uv_.row(static_cast<std::size_t>(udiag));
    for (std::size_t l = 0; l < L; ++l) ud[l] = pv[l];
    for (int k = l0; k < l1; ++k) {
      double* lvk = lv_.row(static_cast<std::size_t>(k));
      const double* wr = work_.row(l_work_row(k));
      for (std::size_t l = 0; l < L; ++l) lvk[l] = wr[l] / pv[l];
    }
  }
}

void BatchedSparseLu::solve_scalar() {
  const std::size_t L = lanes_;
  const auto n = static_cast<std::size_t>(n_);
  std::copy(b_.data(), b_.data() + n * stride_, w_.data());
  for (int j = 0; j < n_; ++j) {
    const int prow = perm_[static_cast<std::size_t>(j)];
    const double* wj = w_.row(static_cast<std::size_t>(prow));
    double* yj = y_.row(static_cast<std::size_t>(j));
    bool any = false;
    for (std::size_t l = 0; l < L; ++l) {
      yj[l] = wj[l];
      any = any || yj[l] != 0.0;
    }
    if (!any) continue;
    for (int k = l_colptr_[static_cast<std::size_t>(j)];
         k < l_colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      double* wu = w_.row(
          static_cast<std::size_t>(l_rowidx_[static_cast<std::size_t>(k)]));
      const double* lvk = lv_.row(static_cast<std::size_t>(k));
      for (std::size_t l = 0; l < L; ++l) {
        if (yj[l] != 0.0) wu[l] -= lvk[l] * yj[l];
      }
    }
  }
  for (int j = n_ - 1; j >= 0; --j) {
    const int last = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    const double* diag = uv_.row(static_cast<std::size_t>(last));
    const double* yj = y_.row(static_cast<std::size_t>(j));
    double* xj = b_.row(static_cast<std::size_t>(j));
    bool any = false;
    for (std::size_t l = 0; l < L; ++l) {
      xj[l] = yj[l] / diag[l];
      any = any || xj[l] != 0.0;
    }
    if (!any) continue;
    for (int k = u_colptr_[static_cast<std::size_t>(j)]; k < last; ++k) {
      double* yu = y_.row(
          static_cast<std::size_t>(u_rowidx_[static_cast<std::size_t>(k)]));
      const double* uvk = uv_.row(static_cast<std::size_t>(k));
      for (std::size_t l = 0; l < L; ++l) {
        if (xj[l] != 0.0) yu[l] -= uvk[l] * xj[l];
      }
    }
  }
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void BatchedSparseLu::refactor_avx2(
    unsigned char* ok) {
  const std::size_t S = stride_;
  const double bar = bit_exact_ ? SparseLu::threshold_pivot_ratio
                                : SparseLu::pivot_degradation_tol;
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vabs =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d vtiny = _mm256_set1_pd(1e-300);
  const __m256d vbar = _mm256_set1_pd(bar);
  std::fill(ok, ok + lanes_, 1);
  for (int j = 0; j < n_; ++j) {
    const int u0 = u_colptr_[static_cast<std::size_t>(j)];
    const int udiag = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    const int l0 = l_colptr_[static_cast<std::size_t>(j)];
    const int l1 = l_colptr_[static_cast<std::size_t>(j) + 1];
    for (int k = u0; k <= udiag; ++k) {
      double* wr = work_.row(u_work_row(k));
      for (std::size_t v = 0; v < S; v += 4) _mm256_storeu_pd(wr + v, vzero);
    }
    for (int k = l0; k < l1; ++k) {
      double* wr = work_.row(l_work_row(k));
      for (std::size_t v = 0; v < S; v += 4) _mm256_storeu_pd(wr + v, vzero);
    }
    for (int k = a_colptr_[static_cast<std::size_t>(j)];
         k < a_colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      double* wr = work_.row(
          static_cast<std::size_t>(a_rowidx_[static_cast<std::size_t>(k)]));
      const double* avk = av_.row(static_cast<std::size_t>(k));
      for (std::size_t v = 0; v < S; v += 4) {
        _mm256_storeu_pd(wr + v, _mm256_loadu_pd(avk + v));
      }
    }
    for (int k = u0; k < udiag; ++k) {
      const int piv = u_rowidx_[static_cast<std::size_t>(k)];
      const double* xr = work_.row(u_work_row(k));
      const int q0 = l_colptr_[static_cast<std::size_t>(piv)];
      const int q1 = l_colptr_[static_cast<std::size_t>(piv) + 1];
      // Block-outer, q-inner: the multiplier xv and its zero mask are
      // loop-invariant over L's column, so hoist them per 4-lane block.  A
      // block whose lanes are all zero is skipped outright — every update it
      // would issue is a blended no-op, the vector analog of the scalar
      // per-lane `x == 0.0` skip, so per-lane arithmetic is unchanged.
      for (std::size_t v = 0; v < S; v += 4) {
        const __m256d xv = _mm256_loadu_pd(xr + v);
        const __m256d eq = _mm256_cmp_pd(xv, vzero, _CMP_EQ_OQ);
        if (_mm256_movemask_pd(eq) == 0xF) continue;
        for (int q = q0; q < q1; ++q) {
          double* wu = work_.row(l_work_row(q)) + v;
          const __m256d wv = _mm256_loadu_pd(wu);
          // Separate mul+sub (no FMA): the scalar solver contracts nothing.
          const __m256d upd = _mm256_sub_pd(
              wv, _mm256_mul_pd(
                      _mm256_loadu_pd(lv_.row(static_cast<std::size_t>(q)) + v),
                      xv));
          _mm256_storeu_pd(wu, _mm256_blendv_pd(upd, wv, eq));
        }
      }
    }
    const double* pv =
        work_.row(static_cast<std::size_t>(perm_[static_cast<std::size_t>(j)]));
    for (std::size_t v = 0; v < S; v += 4) {
      const __m256d pabs = _mm256_and_pd(_mm256_loadu_pd(pv + v), vabs);
      // Strict > with GT_OQ: false on NaN, exactly like the scalar scan.
      __m256d cand =
          _mm256_blendv_pd(vzero, pabs, _mm256_cmp_pd(pabs, vzero, _CMP_GT_OQ));
      for (int k = l0; k < l1; ++k) {
        const __m256d wa = _mm256_and_pd(
            _mm256_loadu_pd(work_.row(l_work_row(k)) + v), vabs);
        const __m256d gt = _mm256_cmp_pd(wa, cand, _CMP_GT_OQ);
        cand = _mm256_blendv_pd(cand, wa, gt);
      }
      // LT_OQ is false on a NaN pivot, matching scalar `NaN < x == false`.
      const __m256d fail =
          _mm256_or_pd(_mm256_cmp_pd(pabs, vtiny, _CMP_LT_OQ),
                       _mm256_cmp_pd(pabs, _mm256_mul_pd(vbar, cand),
                                     _CMP_LT_OQ));
      const int m = _mm256_movemask_pd(fail);
      for (std::size_t bit = 0; bit < 4; ++bit) {
        const std::size_t lane = v + bit;
        if (lane < lanes_ && ((m >> bit) & 1) != 0) ok[lane] = 0;
      }
    }
    for (int k = u0; k < udiag; ++k) {
      double* u = uv_.row(static_cast<std::size_t>(k));
      const double* wr = work_.row(u_work_row(k));
      for (std::size_t v = 0; v < S; v += 4) {
        _mm256_storeu_pd(u + v, _mm256_loadu_pd(wr + v));
      }
    }
    double* ud = uv_.row(static_cast<std::size_t>(udiag));
    for (std::size_t v = 0; v < S; v += 4) {
      _mm256_storeu_pd(ud + v, _mm256_loadu_pd(pv + v));
    }
    for (int k = l0; k < l1; ++k) {
      double* lvk = lv_.row(static_cast<std::size_t>(k));
      const double* wr = work_.row(l_work_row(k));
      for (std::size_t v = 0; v < S; v += 4) {
        _mm256_storeu_pd(lvk + v, _mm256_div_pd(_mm256_loadu_pd(wr + v),
                                                _mm256_loadu_pd(pv + v)));
      }
    }
  }
}

__attribute__((target("avx2"))) void BatchedSparseLu::solve_avx2() {
  const std::size_t S = stride_;
  const auto n = static_cast<std::size_t>(n_);
  const __m256d vzero = _mm256_setzero_pd();
  std::copy(b_.data(), b_.data() + n * S, w_.data());
  for (int j = 0; j < n_; ++j) {
    const int prow = perm_[static_cast<std::size_t>(j)];
    const double* wj = w_.row(static_cast<std::size_t>(prow));
    double* yj = y_.row(static_cast<std::size_t>(j));
    bool allz = true;
    for (std::size_t v = 0; v < S; v += 4) {
      const __m256d yv = _mm256_loadu_pd(wj + v);
      _mm256_storeu_pd(yj + v, yv);
      allz = allz &&
             _mm256_movemask_pd(_mm256_cmp_pd(yv, vzero, _CMP_EQ_OQ)) == 0xF;
    }
    if (allz) continue;
    const int k0 = l_colptr_[static_cast<std::size_t>(j)];
    const int k1 = l_colptr_[static_cast<std::size_t>(j) + 1];
    for (std::size_t v = 0; v < S; v += 4) {
      const __m256d yv = _mm256_loadu_pd(yj + v);
      const __m256d eq = _mm256_cmp_pd(yv, vzero, _CMP_EQ_OQ);
      if (_mm256_movemask_pd(eq) == 0xF) continue;
      for (int k = k0; k < k1; ++k) {
        double* wu =
            w_.row(static_cast<std::size_t>(
                l_rowidx_[static_cast<std::size_t>(k)])) +
            v;
        const __m256d wv = _mm256_loadu_pd(wu);
        const __m256d upd = _mm256_sub_pd(
            wv, _mm256_mul_pd(
                    _mm256_loadu_pd(lv_.row(static_cast<std::size_t>(k)) + v),
                    yv));
        _mm256_storeu_pd(wu, _mm256_blendv_pd(upd, wv, eq));
      }
    }
  }
  for (int j = n_ - 1; j >= 0; --j) {
    const int last = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    const double* diag = uv_.row(static_cast<std::size_t>(last));
    const double* yj = y_.row(static_cast<std::size_t>(j));
    double* xj = b_.row(static_cast<std::size_t>(j));
    bool allz = true;
    for (std::size_t v = 0; v < S; v += 4) {
      const __m256d xv =
          _mm256_div_pd(_mm256_loadu_pd(yj + v), _mm256_loadu_pd(diag + v));
      _mm256_storeu_pd(xj + v, xv);
      allz = allz &&
             _mm256_movemask_pd(_mm256_cmp_pd(xv, vzero, _CMP_EQ_OQ)) == 0xF;
    }
    if (allz) continue;
    const int k0 = u_colptr_[static_cast<std::size_t>(j)];
    for (std::size_t v = 0; v < S; v += 4) {
      const __m256d xv = _mm256_loadu_pd(xj + v);
      const __m256d eq = _mm256_cmp_pd(xv, vzero, _CMP_EQ_OQ);
      if (_mm256_movemask_pd(eq) == 0xF) continue;
      for (int k = k0; k < last; ++k) {
        double* yu =
            y_.row(static_cast<std::size_t>(
                u_rowidx_[static_cast<std::size_t>(k)])) +
            v;
        const __m256d yv = _mm256_loadu_pd(yu);
        const __m256d upd = _mm256_sub_pd(
            yv, _mm256_mul_pd(
                    _mm256_loadu_pd(uv_.row(static_cast<std::size_t>(k)) + v),
                    xv));
        _mm256_storeu_pd(yu, _mm256_blendv_pd(upd, yv, eq));
      }
    }
  }
}

__attribute__((target("avx512f"))) void BatchedSparseLu::refactor_avx512(
    unsigned char* ok) {
  const std::size_t S = stride_;
  const double bar = bit_exact_ ? SparseLu::threshold_pivot_ratio
                                : SparseLu::pivot_degradation_tol;
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d vtiny = _mm512_set1_pd(1e-300);
  const __m512d vbar = _mm512_set1_pd(bar);
  std::fill(ok, ok + lanes_, 1);
  for (int j = 0; j < n_; ++j) {
    const int u0 = u_colptr_[static_cast<std::size_t>(j)];
    const int udiag = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    const int l0 = l_colptr_[static_cast<std::size_t>(j)];
    const int l1 = l_colptr_[static_cast<std::size_t>(j) + 1];
    for (int k = u0; k <= udiag; ++k) {
      double* wr = work_.row(u_work_row(k));
      for (std::size_t v = 0; v < S; v += 8) _mm512_storeu_pd(wr + v, vzero);
    }
    for (int k = l0; k < l1; ++k) {
      double* wr = work_.row(l_work_row(k));
      for (std::size_t v = 0; v < S; v += 8) _mm512_storeu_pd(wr + v, vzero);
    }
    for (int k = a_colptr_[static_cast<std::size_t>(j)];
         k < a_colptr_[static_cast<std::size_t>(j) + 1]; ++k) {
      double* wr = work_.row(
          static_cast<std::size_t>(a_rowidx_[static_cast<std::size_t>(k)]));
      const double* avk = av_.row(static_cast<std::size_t>(k));
      for (std::size_t v = 0; v < S; v += 8) {
        _mm512_storeu_pd(wr + v, _mm512_loadu_pd(avk + v));
      }
    }
    for (int k = u0; k < udiag; ++k) {
      const int piv = u_rowidx_[static_cast<std::size_t>(k)];
      const double* xr = work_.row(u_work_row(k));
      const int q0 = l_colptr_[static_cast<std::size_t>(piv)];
      const int q1 = l_colptr_[static_cast<std::size_t>(piv) + 1];
      for (std::size_t v = 0; v < S; v += 8) {
        const __m512d xv = _mm512_loadu_pd(xr + v);
        // EQ_OQ false on NaN, like the scalar `x == 0.0`; a masked subtract
        // leaves skipped lanes untouched (the blend in the 256-bit kernel).
        const __mmask8 keq = _mm512_cmp_pd_mask(xv, vzero, _CMP_EQ_OQ);
        if (keq == 0xFF) continue;
        const auto knz = static_cast<__mmask8>(~keq);
        for (int q = q0; q < q1; ++q) {
          double* wu = work_.row(l_work_row(q)) + v;
          const __m512d wv = _mm512_loadu_pd(wu);
          // Separate mul then masked sub (no FMA), as in the scalar solver.
          const __m512d prod = _mm512_mul_pd(
              _mm512_loadu_pd(lv_.row(static_cast<std::size_t>(q)) + v), xv);
          _mm512_storeu_pd(wu, _mm512_mask_sub_pd(wv, knz, wv, prod));
        }
      }
    }
    const double* pv =
        work_.row(static_cast<std::size_t>(perm_[static_cast<std::size_t>(j)]));
    for (std::size_t v = 0; v < S; v += 8) {
      const __m512d pabs = _mm512_abs_pd(_mm512_loadu_pd(pv + v));
      // Strict > with GT_OQ: false on NaN, exactly like the scalar scan.
      __m512d cand = _mm512_mask_blend_pd(
          _mm512_cmp_pd_mask(pabs, vzero, _CMP_GT_OQ), vzero, pabs);
      for (int k = l0; k < l1; ++k) {
        const __m512d wa =
            _mm512_abs_pd(_mm512_loadu_pd(work_.row(l_work_row(k)) + v));
        const __mmask8 kgt = _mm512_cmp_pd_mask(wa, cand, _CMP_GT_OQ);
        cand = _mm512_mask_blend_pd(kgt, cand, wa);
      }
      // LT_OQ is false on a NaN pivot, matching scalar `NaN < x == false`.
      const __mmask8 kfail = static_cast<__mmask8>(
          _mm512_cmp_pd_mask(pabs, vtiny, _CMP_LT_OQ) |
          _mm512_cmp_pd_mask(pabs, _mm512_mul_pd(vbar, cand), _CMP_LT_OQ));
      for (std::size_t bit = 0; bit < 8; ++bit) {
        const std::size_t lane = v + bit;
        if (lane < lanes_ && ((kfail >> bit) & 1) != 0) ok[lane] = 0;
      }
    }
    for (int k = u0; k < udiag; ++k) {
      double* u = uv_.row(static_cast<std::size_t>(k));
      const double* wr = work_.row(u_work_row(k));
      for (std::size_t v = 0; v < S; v += 8) {
        _mm512_storeu_pd(u + v, _mm512_loadu_pd(wr + v));
      }
    }
    double* ud = uv_.row(static_cast<std::size_t>(udiag));
    for (std::size_t v = 0; v < S; v += 8) {
      _mm512_storeu_pd(ud + v, _mm512_loadu_pd(pv + v));
    }
    for (int k = l0; k < l1; ++k) {
      double* lvk = lv_.row(static_cast<std::size_t>(k));
      const double* wr = work_.row(l_work_row(k));
      for (std::size_t v = 0; v < S; v += 8) {
        _mm512_storeu_pd(lvk + v, _mm512_div_pd(_mm512_loadu_pd(wr + v),
                                                _mm512_loadu_pd(pv + v)));
      }
    }
  }
}

__attribute__((target("avx512f"))) void BatchedSparseLu::solve_avx512() {
  const std::size_t S = stride_;
  const auto n = static_cast<std::size_t>(n_);
  const __m512d vzero = _mm512_setzero_pd();
  std::copy(b_.data(), b_.data() + n * S, w_.data());
  for (int j = 0; j < n_; ++j) {
    const int prow = perm_[static_cast<std::size_t>(j)];
    const double* wj = w_.row(static_cast<std::size_t>(prow));
    double* yj = y_.row(static_cast<std::size_t>(j));
    bool allz = true;
    for (std::size_t v = 0; v < S; v += 8) {
      const __m512d yv = _mm512_loadu_pd(wj + v);
      _mm512_storeu_pd(yj + v, yv);
      allz = allz && _mm512_cmp_pd_mask(yv, vzero, _CMP_EQ_OQ) == 0xFF;
    }
    if (allz) continue;
    const int k0 = l_colptr_[static_cast<std::size_t>(j)];
    const int k1 = l_colptr_[static_cast<std::size_t>(j) + 1];
    for (std::size_t v = 0; v < S; v += 8) {
      const __m512d yv = _mm512_loadu_pd(yj + v);
      const __mmask8 keq = _mm512_cmp_pd_mask(yv, vzero, _CMP_EQ_OQ);
      if (keq == 0xFF) continue;
      const auto knz = static_cast<__mmask8>(~keq);
      for (int k = k0; k < k1; ++k) {
        double* wu =
            w_.row(static_cast<std::size_t>(
                l_rowidx_[static_cast<std::size_t>(k)])) +
            v;
        const __m512d wv = _mm512_loadu_pd(wu);
        const __m512d prod = _mm512_mul_pd(
            _mm512_loadu_pd(lv_.row(static_cast<std::size_t>(k)) + v), yv);
        _mm512_storeu_pd(wu, _mm512_mask_sub_pd(wv, knz, wv, prod));
      }
    }
  }
  for (int j = n_ - 1; j >= 0; --j) {
    const int last = u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    const double* diag = uv_.row(static_cast<std::size_t>(last));
    const double* yj = y_.row(static_cast<std::size_t>(j));
    double* xj = b_.row(static_cast<std::size_t>(j));
    bool allz = true;
    for (std::size_t v = 0; v < S; v += 8) {
      const __m512d xv =
          _mm512_div_pd(_mm512_loadu_pd(yj + v), _mm512_loadu_pd(diag + v));
      _mm512_storeu_pd(xj + v, xv);
      allz = allz && _mm512_cmp_pd_mask(xv, vzero, _CMP_EQ_OQ) == 0xFF;
    }
    if (allz) continue;
    const int k0 = u_colptr_[static_cast<std::size_t>(j)];
    for (std::size_t v = 0; v < S; v += 8) {
      const __m512d xv = _mm512_loadu_pd(xj + v);
      const __mmask8 keq = _mm512_cmp_pd_mask(xv, vzero, _CMP_EQ_OQ);
      if (keq == 0xFF) continue;
      const auto knz = static_cast<__mmask8>(~keq);
      for (int k = k0; k < last; ++k) {
        double* yu =
            y_.row(static_cast<std::size_t>(
                u_rowidx_[static_cast<std::size_t>(k)])) +
            v;
        const __m512d yv = _mm512_loadu_pd(yu);
        const __m512d prod = _mm512_mul_pd(
            _mm512_loadu_pd(uv_.row(static_cast<std::size_t>(k)) + v), xv);
        _mm512_storeu_pd(yu, _mm512_mask_sub_pd(yv, knz, yv, prod));
      }
    }
  }
}

#endif  // defined(__x86_64__)

}  // namespace mda::spice
