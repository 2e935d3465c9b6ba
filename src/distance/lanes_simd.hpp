#pragma once
// Private to the lane kernels (distance/lanes.cpp and the per-ISA units
// lanes_avx2.cpp / lanes_avx512.cpp): the lane-group job and the kernel
// templates, written once against a vector type V and instantiated per ISA.
//
// The per-ISA units are compiled with -mavx2 / -mavx512f, so everything they
// see crosses in raw pointers and their instantiations have internal linkage
// (V is defined in an anonymous namespace): no inline library function is
// emitted there with instructions the baseline target lacks.
//
// V provides kLanes, Mask, load/store/splat, add/sub/mul/abs, the ordered
// compares lt/le/gt/eq (false on NaN, as the scalar operators), min(a, b) =
// a < b ? a : b and max(a, b) = a > b ? a : b (the x86 MINPD/MAXPD
// semantics, NaN and signed-zero cases included), select(m, a, b) =
// m ? a : b, add_if(m, a, b) = m ? a + b : a, and none/either/all on masks.
// std::min(x, y) is then V::min(y, x), and std::max(x, y) is V::max(y, x).
// Each kernel below repeats its scalar kernel's per-cell arithmetic; the
// comments name the scalar expression.

#include <cstddef>
#include <limits>

#include "distance/lanes.hpp"

namespace mda::dist::lanes {

/// One lane group: `lanes` live pairs, all p of length m, all q of length n.
struct Job {
  DistanceKind kind = DistanceKind::Dtw;
  std::size_t lanes = 0;
  std::size_t m = 0;
  std::size_t n = 0;
  const double* p[kMaxLanes] = {};
  const double* q[kMaxLanes] = {};
  double cutoff[kMaxLanes] = {};
  const double* pair_w = nullptr;  ///< m x n row-major, or null (unit).
  const double* elem_w = nullptr;  ///< Length m, or null (unit).
  double threshold = 0.0;
  double vstep = 1.0;
  /// DTW: DP row i's band is [band_lo[i], band_hi[i]], i = 1 .. m (never
  /// empty; an empty row is resolved before the job runs).
  const std::size_t* band_lo = nullptr;
  const std::size_t* band_hi = nullptr;
  double* scratch = nullptr;  ///< scratch_doubles(m, n) doubles.
  double* out = nullptr;      ///< `lanes` results.
};

[[nodiscard]] constexpr std::size_t scratch_doubles(std::size_t m,
                                                    std::size_t n) {
  return (m + n + 3 * (n + 1)) * kMaxLanes;  // inputs + three DP rows
}

/// Run `job` with the AVX-512 (8-lane) / AVX2 (4-lane) kernels.  Return
/// false, computing nothing, when the unit was built without that ISA.
/// Callers check util::use_avx512() / use_avx2() first.
bool run_avx512(const Job& job);
bool run_avx2(const Job& job);

/// Build the job for `pairs` (already validated by compute_lanes: at most
/// kMaxLanes, one shape, `out` long enough) and run it through `kernel`.
/// Returns false, computing nothing, when the kind or shape has no lane
/// kernel (MD; an empty sequence; unequal HamD lengths) or `kernel` is not
/// built.
bool run_group(DistanceKind kind, std::span<const LanePair> pairs,
               const DistanceParams& params, std::span<double> out,
               bool (*kernel)(const Job&));

// ---- kernel templates (instantiated only by the per-ISA units) ----------

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// dst[i * L + l] = src[l][i] for the L lanes of a group; lanes past `live`
/// repeat lane 0, so they compute a copy of it and are never stored.
template <std::size_t L>
void transpose(const double* const* src, std::size_t live, std::size_t len,
               double* dst) {
  for (std::size_t l = 0; l < L; ++l) {
    const double* s = src[l < live ? l : 0];
    for (std::size_t i = 0; i < len; ++i) dst[i * L + l] = s[i];
  }
}

/// std::min({a, b, c}) — the fold r = a; if (b < r) r = b; if (c < r)
/// r = c — written as the case split on its first compare:
/// b < a ? (c < b ? c : b) : (c < a ? c : a).  Every compare is one the fold
/// makes, so NaNs and ties resolve exactly as in the scalar kernel; but the
/// compares no longer wait on each other, which shortens the DP recurrence's
/// dependency chain from two compare-selects in series to one.
template <class V>
V min3(V a, V b, V c) {
  return V::select(V::lt(b, a), V::min(c, b), V::min(c, a));
}

/// DTW with dtw()'s band bookkeeping (a row writes [lo - 1, hi]; band ends
/// never move left).  Rows run in pairs, row i + 1 one column behind row i —
/// cell (i + 1, j) needs only (i, j), (i, j - 1) and (i + 1, j - 1) — so the
/// two rows' dependency chains interleave.  Three rolling buffers receive
/// rows in increasing order, which keeps the bookkeeping valid.
template <class V>
V dtw_lanes(const Job& job, const double* P, const double* Q, double* rows,
            V cut) {
  constexpr std::size_t L = V::kLanes;
  const std::size_t m = job.m;
  const std::size_t n = job.n;
  const V inf = V::splat(kInf);
  for (std::size_t k = 0; k < 3 * (n + 1); ++k) inf.store(rows + k * L);
  double* const buf[3] = {rows, rows + (n + 1) * L, rows + 2 * (n + 1) * L};
  V::splat(0.0).store(buf[0]);
  struct Row {
    const double* above;
    double* cur;
    V pi;
    const double* wrow;
    V left;
    V row_min;
  };
  const auto start = [&](std::size_t i, const double* above, double* cur) {
    inf.store(cur + (job.band_lo[i] - 1) * L);
    return Row{above, cur, V::load(P + (i - 1) * L),
               job.pair_w != nullptr ? job.pair_w + (i - 1) * n : nullptr,
               inf, inf};
  };
  const auto step = [&](Row& r, std::size_t j) {
    const V up = V::load(r.above + j * L);
    const V diag = V::load(r.above + (j - 1) * L);
    // std::min({cur[j - 1], prev[j], prev[j - 1]})
    const V best = min3(r.left, up, diag);
    // best == kInf ? kInf : wij * std::abs(pi - q[j - 1]) + best
    const V w = V::splat(r.wrow != nullptr ? r.wrow[j - 1] : 1.0);
    const V cost = V::mul(w, V::abs(V::sub(r.pi, V::load(Q + (j - 1) * L))));
    r.left = V::select(V::eq(best, inf), inf, V::add(cost, best));
    r.left.store(r.cur + j * L);
    // row_min = std::min(row_min, cur[j])
    r.row_min = V::min(r.left, r.row_min);
  };
  // row_min > abandon_above: never true for an infinite or NaN cutoff,
  // exactly as dtw() skips the test for those.  A lane that dies at row i
  // also computes row i + 1; its result is +inf either way.
  typename V::Mask dead = V::none();
  std::size_t top = 0;  // buffer holding row i - 1
  for (std::size_t i = 1; i <= m;) {
    Row a = start(i, buf[top], buf[(top + 1) % 3]);
    const std::size_t lo1 = job.band_lo[i];
    const std::size_t hi1 = job.band_hi[i];
    if (i == m) {
      for (std::size_t j = lo1; j <= hi1; ++j) step(a, j);
      dead = V::either(dead, V::gt(a.row_min, cut));
      top = (top + 1) % 3;
      i += 1;
    } else {
      Row b = start(i + 1, a.cur, buf[(top + 2) % 3]);
      const std::size_t lo2 = job.band_lo[i + 1];
      const std::size_t hi2 = job.band_hi[i + 1];
      // Row i alone up to column lo2, both rows up to hi1, then row i + 1.
      std::size_t j = lo1;
      for (; j <= (hi1 < lo2 ? hi1 : lo2); ++j) step(a, j);
      for (; j <= hi1; ++j) {
        step(a, j);
        step(b, j - 1);
      }
      for (j = (hi1 > lo2 ? hi1 : lo2) + 1; j <= hi2 + 1; ++j) step(b, j - 1);
      dead = V::either(dead, V::either(V::gt(a.row_min, cut),
                                       V::gt(b.row_min, cut)));
      top = (top + 2) % 3;
      i += 2;
    }
    if (V::all(dead)) return inf;
  }
  return V::select(dead, inf, V::load(buf[top] + n * L));
}

template <class V>
V lcs_lanes(const Job& job, const double* P, const double* Q, double* rows) {
  constexpr std::size_t L = V::kLanes;
  const std::size_t m = job.m;
  const std::size_t n = job.n;
  const V thr = V::splat(job.threshold);
  const V zero = V::splat(0.0);
  for (std::size_t k = 0; k < 2 * (n + 1); ++k) zero.store(rows + k * L);
  double* prev = rows;
  double* cur = rows + (n + 1) * L;
  for (std::size_t i = 1; i <= m; ++i) {
    const V pi = V::load(P + (i - 1) * L);
    const double* wrow = job.pair_w != nullptr ? job.pair_w + (i - 1) * n
                                               : nullptr;
    V left = V::splat(0.0);
    for (std::size_t j = 1; j <= n; ++j) {
      // match = prev[j - 1] + wij * vstep
      const double wv = (wrow != nullptr ? wrow[j - 1] : 1.0) * job.vstep;
      const V match = V::add(V::load(prev + (j - 1) * L), V::splat(wv));
      // skip = std::max(cur[j - 1], prev[j])
      const V up = V::load(prev + j * L);
      const V skip = V::max(up, left);
      // std::abs(pi - q[j - 1]) <= threshold ? match : skip
      const V d = V::abs(V::sub(pi, V::load(Q + (j - 1) * L)));
      left = V::select(V::le(d, thr), match, skip);
      left.store(cur + j * L);
    }
    double* t = prev;
    prev = cur;
    cur = t;
  }
  return V::load(prev + n * L);
}

/// Edit distance, rows in pairs as in dtw_lanes (row i + 1 one column
/// behind row i), with edit_distance()'s row-minimum abandon (column 0
/// included).
template <class V>
V edit_lanes(const Job& job, const double* P, const double* Q, double* rows,
             V cut) {
  constexpr std::size_t L = V::kLanes;
  const std::size_t m = job.m;
  const std::size_t n = job.n;
  const V thr = V::splat(job.threshold);
  const V zero = V::splat(0.0);
  double* const buf[3] = {rows, rows + (n + 1) * L, rows + 2 * (n + 1) * L};
  for (std::size_t j = 0; j <= n; ++j) {
    V::splat(static_cast<double>(j) * job.vstep).store(buf[0] + j * L);
  }
  struct Row {
    const double* above;
    double* cur;
    V pi;
    const double* wrow;
    V left;
    V row_min;
  };
  const auto start = [&](std::size_t i, const double* above, double* cur) {
    const V first = V::splat(static_cast<double>(i) * job.vstep);
    first.store(cur);
    return Row{above, cur, V::load(P + (i - 1) * L),
               job.pair_w != nullptr ? job.pair_w + (i - 1) * n : nullptr,
               first, first};
  };
  const auto step = [&](Row& r, std::size_t j) {
    const V w =
        V::splat((r.wrow != nullptr ? r.wrow[j - 1] : 1.0) * job.vstep);
    const V del = V::add(V::load(r.above + j * L), w);
    const V ins = V::add(r.left, w);
    // sub = prev[j - 1] + (equal ? 0.0 : w)
    const V d = V::abs(V::sub(r.pi, V::load(Q + (j - 1) * L)));
    const V sub = V::add(V::load(r.above + (j - 1) * L),
                         V::select(V::le(d, thr), zero, w));
    // std::min({del, ins, sub})
    r.left = min3(del, ins, sub);
    r.left.store(r.cur + j * L);
    // row_min = std::min(row_min, cur[j])
    r.row_min = V::min(r.left, r.row_min);
  };
  // row_min > abandon_above, per row as in dtw_lanes.
  typename V::Mask dead = V::none();
  std::size_t top = 0;  // buffer holding row i - 1
  for (std::size_t i = 1; i <= m;) {
    Row a = start(i, buf[top], buf[(top + 1) % 3]);
    if (i == m) {
      for (std::size_t j = 1; j <= n; ++j) step(a, j);
      dead = V::either(dead, V::gt(a.row_min, cut));
      top = (top + 1) % 3;
      i += 1;
    } else {
      Row b = start(i + 1, a.cur, buf[(top + 2) % 3]);
      step(a, 1);
      for (std::size_t j = 2; j <= n; ++j) {
        step(a, j);
        step(b, j - 1);
      }
      step(b, n);
      dead = V::either(dead, V::either(V::gt(a.row_min, cut),
                                       V::gt(b.row_min, cut)));
      top = (top + 2) % 3;
      i += 2;
    }
    if (V::all(dead)) return V::splat(kInf);
  }
  return V::select(dead, V::splat(kInf), V::load(buf[top] + n * L));
}

/// Directed Hausdorff, p's elements as rows: kCols column minima folded over
/// i side by side (as hausdorff_directed does), then into `worst` in column
/// order, testing the cutoff after each column's fold.
template <class V>
V hausdorff_lanes(const Job& job, const double* P, const double* Q, V cut) {
  constexpr std::size_t L = V::kLanes;
  constexpr std::size_t kCols = 4;
  const std::size_t m = job.m;
  const std::size_t n = job.n;
  const auto cost = [&](V pi, std::size_t i, std::size_t j) {
    // wij * std::abs(p[i] - q[j])
    const V w = V::splat(job.pair_w != nullptr ? job.pair_w[i * n + j] : 1.0);
    return V::mul(w, V::abs(V::sub(pi, V::load(Q + j * L))));
  };
  V worst = V::splat(0.0);
  typename V::Mask dead = V::none();
  const auto fold = [&](V best) {  // worst = std::max(worst, best)
    worst = V::max(best, worst);
    // worst > abandon_above
    dead = V::either(dead, V::gt(worst, cut));
  };
  std::size_t j = 0;
  for (; j + kCols <= n; j += kCols) {
    V best[kCols];
#pragma GCC unroll 4
    for (V& b : best) b = V::splat(kInf);
    for (std::size_t i = 0; i < m; ++i) {
      const V pi = V::load(P + i * L);
#pragma GCC unroll 4
      for (std::size_t c = 0; c < kCols; ++c) {
        // best = std::min(best, d)
        best[c] = V::min(cost(pi, i, j + c), best[c]);
      }
    }
#pragma GCC unroll 4
    for (const V& b : best) fold(b);
    if (V::all(dead)) return V::splat(kInf);
  }
  for (; j < n; ++j) {
    V best = V::splat(kInf);
    for (std::size_t i = 0; i < m; ++i) {
      best = V::min(cost(V::load(P + i * L), i, j), best);
    }
    fold(best);
  }
  return V::select(dead, V::splat(kInf), worst);
}

/// Hamming distance, testing the cutoff after every element.
template <class V>
V hamming_lanes(const Job& job, const double* P, const double* Q, V cut) {
  constexpr std::size_t L = V::kLanes;
  const V thr = V::splat(job.threshold);
  V h = V::splat(0.0);
  typename V::Mask dead = V::none();
  for (std::size_t i = 0; i < job.m; ++i) {
    // if (std::abs(p[i] - q[i]) > threshold) h += w_i * vstep
    const V d = V::abs(V::sub(V::load(P + i * L), V::load(Q + i * L)));
    const double wv =
        (job.elem_w != nullptr ? job.elem_w[i] : 1.0) * job.vstep;
    h = V::add_if(V::gt(d, thr), h, V::splat(wv));
    // h > abandon_above
    dead = V::either(dead, V::gt(h, cut));
    if (V::all(dead)) return V::splat(kInf);
  }
  return V::select(dead, V::splat(kInf), h);
}

/// Every lane group of `job`, V::kLanes pairs at a time.
template <class V>
void run(const Job& job) {
  constexpr std::size_t L = V::kLanes;
  double* P = job.scratch;
  double* Q = P + job.m * L;
  double* rows = Q + job.n * L;
  for (std::size_t base = 0; base < job.lanes; base += L) {
    const std::size_t live = job.lanes - base < L ? job.lanes - base : L;
    transpose<L>(job.p + base, live, job.m, P);
    transpose<L>(job.q + base, live, job.n, Q);
    double lane[L];
    for (std::size_t l = 0; l < L; ++l) {
      lane[l] = job.cutoff[base + (l < live ? l : 0)];
    }
    const V cut = V::load(lane);
    V r = V::splat(0.0);
    switch (job.kind) {
      case DistanceKind::Dtw: r = dtw_lanes<V>(job, P, Q, rows, cut); break;
      case DistanceKind::Lcs: r = lcs_lanes<V>(job, P, Q, rows); break;
      case DistanceKind::Edit: r = edit_lanes<V>(job, P, Q, rows, cut); break;
      case DistanceKind::Hausdorff:
        r = hausdorff_lanes<V>(job, P, Q, cut);
        break;
      case DistanceKind::Hamming: r = hamming_lanes<V>(job, P, Q, cut); break;
      case DistanceKind::Manhattan: break;  // no lane kernel (run_group)
    }
    r.store(lane);
    for (std::size_t l = 0; l < live; ++l) job.out[base + l] = lane[l];
  }
}

}  // namespace mda::dist::lanes
