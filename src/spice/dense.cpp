#include "spice/dense.hpp"

#include <cmath>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mda::spice {

bool DenseLu::factor(int n, const std::vector<double>& a) {
  n_ = n;
  lu_ = a;
  perm_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm_[static_cast<std::size_t>(i)] = i;
  auto at = [&](int r, int c) -> double& {
    return lu_[static_cast<std::size_t>(r) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(c)];
  };
  for (int k = 0; k < n; ++k) {
    int pivot = k;
    double best = std::abs(at(k, k));
    for (int r = k + 1; r < n; ++r) {
      const double v = std::abs(at(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;
    if (pivot != k) {
      for (int c = 0; c < n; ++c) std::swap(at(k, c), at(pivot, c));
      std::swap(perm_[static_cast<std::size_t>(k)],
                perm_[static_cast<std::size_t>(pivot)]);
    }
    const double inv = 1.0 / at(k, k);
    for (int r = k + 1; r < n; ++r) {
      const double f = at(r, k) * inv;
      at(r, k) = f;
      if (f == 0.0) continue;
      for (int c = k + 1; c < n; ++c) at(r, c) -= f * at(k, c);
    }
  }
  return true;
}

void DenseLu::solve(std::vector<double>& b) {
  const int n = n_;
  y_.resize(static_cast<std::size_t>(n));
  std::vector<double>& y = y_;
  auto at = [&](int r, int c) -> double {
    return lu_[static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(c)];
  };
  for (int i = 0; i < n; ++i) {
    double acc = b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
    for (int j = 0; j < i; ++j) acc -= at(i, j) * y[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc;
  }
  for (int i = n - 1; i >= 0; --i) {
    double acc = y[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n; ++j) {
      acc -= at(i, j) * b[static_cast<std::size_t>(j)];
    }
    b[static_cast<std::size_t>(i)] = acc / at(i, i);
  }
}

// ---------------------------------------------------------------------------
// BatchedDenseLu
//
// Pivot choice is value-dependent and therefore per lane: each lane keeps
// its own permutation, applied as lane-local physical row swaps, after which
// the O(n^3) elimination sweep is elementwise over the lane axis and
// vectorizes.  Per-lane arithmetic matches DenseLu bit for bit (same
// operation order, no FMA, the `f == 0.0` row skip replicated with an EQ_OQ
// blend in the vector kernel).
// ---------------------------------------------------------------------------

void BatchedDenseLu::resize(int n, std::size_t lanes) {
  // Every buffer is fully (re)written per factor/solve for every live lane,
  // so an unchanged layout needs no reallocation or zero-fill.
  if (n == n_ && lanes == lanes_) return;
  n_ = n;
  lanes_ = lanes;
  stride_ = batch::padded_lanes(lanes);
  const auto un = static_cast<std::size_t>(n);
  lu_.resize(un * un, lanes);
  b_.resize(un, lanes);
  y_.resize(un, lanes);
  perm_.assign(un * lanes, 0);
}

void BatchedDenseLu::load_lane_matrix(std::size_t lane,
                                      const std::vector<double>& a) {
  double* dst = lu_.data() + lane;
  for (std::size_t i = 0; i < a.size(); ++i) dst[i * stride_] = a[i];
}

void BatchedDenseLu::load_lane_rhs(std::size_t lane,
                                   const std::vector<double>& b) {
  double* dst = b_.data() + lane;
  for (std::size_t i = 0; i < b.size(); ++i) dst[i * stride_] = b[i];
}

void BatchedDenseLu::store_lane_solution(std::size_t lane,
                                         std::vector<double>& x) const {
  x.resize(static_cast<std::size_t>(n_));
  const double* src = b_.data() + lane;
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = src[i * stride_];
}

void BatchedDenseLu::factor(unsigned char* ok) {
#if defined(__x86_64__)
  if (util::use_avx2()) {
    factor_avx2(ok);
    return;
  }
#endif
  factor_scalar(ok);
}

void BatchedDenseLu::solve() {
#if defined(__x86_64__)
  if (util::use_avx2()) {
    solve_avx2();
    return;
  }
#endif
  solve_scalar();
}

void BatchedDenseLu::factor_scalar(unsigned char* ok) {
  const int n = n_;
  const auto un = static_cast<std::size_t>(n);
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    ok[lane] = 1;
    auto at = [&](int r, int c) -> double& {
      return lu_.row(static_cast<std::size_t>(r) * un +
                     static_cast<std::size_t>(c))[lane];
    };
    auto perm = [&](int i) -> int& {
      return perm_[static_cast<std::size_t>(i) * lanes_ + lane];
    };
    for (int i = 0; i < n; ++i) perm(i) = i;
    for (int k = 0; k < n; ++k) {
      int pivot = k;
      double best = std::abs(at(k, k));
      for (int r = k + 1; r < n; ++r) {
        const double v = std::abs(at(r, k));
        if (v > best) {
          best = v;
          pivot = r;
        }
      }
      if (best < 1e-300) {
        ok[lane] = 0;
        break;  // DenseLu::factor returns false here; results are unread
      }
      if (pivot != k) {
        for (int c = 0; c < n; ++c) std::swap(at(k, c), at(pivot, c));
        std::swap(perm(k), perm(pivot));
      }
      const double inv = 1.0 / at(k, k);
      for (int r = k + 1; r < n; ++r) {
        const double f = at(r, k) * inv;
        at(r, k) = f;
        if (f == 0.0) continue;
        for (int c = k + 1; c < n; ++c) at(r, c) -= f * at(k, c);
      }
    }
  }
}

void BatchedDenseLu::solve_scalar() {
  const int n = n_;
  const auto un = static_cast<std::size_t>(n);
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    auto at = [&](int r, int c) -> double {
      return lu_.row(static_cast<std::size_t>(r) * un +
                     static_cast<std::size_t>(c))[lane];
    };
    for (int i = 0; i < n; ++i) {
      const int p = perm_[static_cast<std::size_t>(i) * lanes_ + lane];
      double acc = b_.row(static_cast<std::size_t>(p))[lane];
      for (int j = 0; j < i; ++j) {
        acc -= at(i, j) * y_.row(static_cast<std::size_t>(j))[lane];
      }
      y_.row(static_cast<std::size_t>(i))[lane] = acc;
    }
    for (int i = n - 1; i >= 0; --i) {
      double acc = y_.row(static_cast<std::size_t>(i))[lane];
      for (int j = i + 1; j < n; ++j) {
        acc -= at(i, j) * b_.row(static_cast<std::size_t>(j))[lane];
      }
      b_.row(static_cast<std::size_t>(i))[lane] = acc / at(i, i);
    }
  }
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void BatchedDenseLu::factor_avx2(
    unsigned char* ok) {
  const int n = n_;
  const auto un = static_cast<std::size_t>(n);
  const std::size_t S = stride_;
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vone = _mm256_set1_pd(1.0);
  std::fill(ok, ok + lanes_, 1);
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    for (int i = 0; i < n; ++i) {
      perm_[static_cast<std::size_t>(i) * lanes_ + lane] = i;
    }
  }
  for (int k = 0; k < n; ++k) {
    // Pivot search and row swap stay per lane (value-dependent control
    // flow); a failed (singular) lane keeps computing garbage.
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      int pivot = k;
      double best =
          std::abs(lu_.row(static_cast<std::size_t>(k) * un +
                           static_cast<std::size_t>(k))[lane]);
      for (int r = k + 1; r < n; ++r) {
        const double v =
            std::abs(lu_.row(static_cast<std::size_t>(r) * un +
                             static_cast<std::size_t>(k))[lane]);
        if (v > best) {
          best = v;
          pivot = r;
        }
      }
      if (best < 1e-300) ok[lane] = 0;
      if (pivot != k) {
        for (int c = 0; c < n; ++c) {
          std::swap(lu_.row(static_cast<std::size_t>(k) * un +
                            static_cast<std::size_t>(c))[lane],
                    lu_.row(static_cast<std::size_t>(pivot) * un +
                            static_cast<std::size_t>(c))[lane]);
        }
        std::swap(perm_[static_cast<std::size_t>(k) * lanes_ + lane],
                  perm_[static_cast<std::size_t>(pivot) * lanes_ + lane]);
      }
    }
    const double* akk = lu_.row(static_cast<std::size_t>(k) * un +
                                static_cast<std::size_t>(k));
    for (int r = k + 1; r < n; ++r) {
      double* ark = lu_.row(static_cast<std::size_t>(r) * un +
                            static_cast<std::size_t>(k));
      bool allz = true;
      for (std::size_t v = 0; v < S; v += 4) {
        const __m256d vinv = _mm256_div_pd(vone, _mm256_loadu_pd(akk + v));
        const __m256d f = _mm256_mul_pd(_mm256_loadu_pd(ark + v), vinv);
        _mm256_storeu_pd(ark + v, f);
        allz = allz &&
               _mm256_movemask_pd(_mm256_cmp_pd(f, vzero, _CMP_EQ_OQ)) == 0xF;
      }
      if (allz) continue;
      for (int c = k + 1; c < n; ++c) {
        double* arc = lu_.row(static_cast<std::size_t>(r) * un +
                              static_cast<std::size_t>(c));
        const double* akc = lu_.row(static_cast<std::size_t>(k) * un +
                                    static_cast<std::size_t>(c));
        for (std::size_t v = 0; v < S; v += 4) {
          const __m256d f = _mm256_loadu_pd(ark + v);
          const __m256d eq = _mm256_cmp_pd(f, vzero, _CMP_EQ_OQ);
          const __m256d av = _mm256_loadu_pd(arc + v);
          const __m256d upd =
              _mm256_sub_pd(av, _mm256_mul_pd(f, _mm256_loadu_pd(akc + v)));
          _mm256_storeu_pd(arc + v, _mm256_blendv_pd(upd, av, eq));
        }
      }
    }
  }
}

__attribute__((target("avx2"))) void BatchedDenseLu::solve_avx2() {
  const int n = n_;
  const auto un = static_cast<std::size_t>(n);
  const std::size_t S = stride_;
  for (int i = 0; i < n; ++i) {
    double* yi = y_.row(static_cast<std::size_t>(i));
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      const int p = perm_[static_cast<std::size_t>(i) * lanes_ + lane];
      yi[lane] = b_.row(static_cast<std::size_t>(p))[lane];
    }
    for (std::size_t v = 0; v < S; v += 4) {
      __m256d acc = _mm256_loadu_pd(yi + v);
      for (int j = 0; j < i; ++j) {
        const double* aij = lu_.row(static_cast<std::size_t>(i) * un +
                                    static_cast<std::size_t>(j));
        acc = _mm256_sub_pd(
            acc, _mm256_mul_pd(
                     _mm256_loadu_pd(aij + v),
                     _mm256_loadu_pd(y_.row(static_cast<std::size_t>(j)) + v)));
      }
      _mm256_storeu_pd(yi + v, acc);
    }
  }
  for (int i = n - 1; i >= 0; --i) {
    const double* yi = y_.row(static_cast<std::size_t>(i));
    double* xi = b_.row(static_cast<std::size_t>(i));
    const double* aii = lu_.row(static_cast<std::size_t>(i) * un +
                                static_cast<std::size_t>(i));
    for (std::size_t v = 0; v < S; v += 4) {
      __m256d acc = _mm256_loadu_pd(yi + v);
      for (int j = i + 1; j < n; ++j) {
        const double* aij = lu_.row(static_cast<std::size_t>(i) * un +
                                    static_cast<std::size_t>(j));
        acc = _mm256_sub_pd(
            acc, _mm256_mul_pd(
                     _mm256_loadu_pd(aij + v),
                     _mm256_loadu_pd(b_.row(static_cast<std::size_t>(j)) + v)));
      }
      _mm256_storeu_pd(xi + v, _mm256_div_pd(acc, _mm256_loadu_pd(aii + v)));
    }
  }
}

#endif  // defined(__x86_64__)

}  // namespace mda::spice
