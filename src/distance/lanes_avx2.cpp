// AVX2 instantiation of the lane kernels: 4 pairs per vector.  Compiled with
// -mavx2 (src/CMakeLists.txt); lanes.cpp calls it only when util::use_avx2()
// holds.

#include "distance/lanes_simd.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

namespace mda::dist::lanes {
namespace {

struct V4 {
  static constexpr std::size_t kLanes = 4;
  using Mask = __m256d;  ///< All-ones / all-zeros per lane.
  __m256d v;

  static V4 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static V4 splat(double x) { return {_mm256_set1_pd(x)}; }
  static V4 add(V4 a, V4 b) { return {_mm256_add_pd(a.v, b.v)}; }
  static V4 sub(V4 a, V4 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  static V4 mul(V4 a, V4 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  static V4 abs(V4 a) { return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)}; }
  static V4 min(V4 a, V4 b) { return {_mm256_min_pd(a.v, b.v)}; }
  static V4 max(V4 a, V4 b) { return {_mm256_max_pd(a.v, b.v)}; }
  static Mask lt(V4 a, V4 b) { return _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ); }
  static Mask le(V4 a, V4 b) { return _mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ); }
  static Mask gt(V4 a, V4 b) { return _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ); }
  static Mask eq(V4 a, V4 b) { return _mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ); }
  static V4 select(Mask m, V4 a, V4 b) {
    return {_mm256_blendv_pd(b.v, a.v, m)};
  }
  static V4 add_if(Mask m, V4 a, V4 b) {
    return {_mm256_blendv_pd(a.v, _mm256_add_pd(a.v, b.v), m)};
  }
  static Mask none() { return _mm256_setzero_pd(); }
  static Mask either(Mask a, Mask b) { return _mm256_or_pd(a, b); }
  static bool all(Mask m) { return _mm256_movemask_pd(m) == 0xF; }
};

}  // namespace

bool run_avx2(const Job& job) {
  run<V4>(job);
  return true;
}

}  // namespace mda::dist::lanes

#else

namespace mda::dist::lanes {
bool run_avx2(const Job&) { return false; }
}  // namespace mda::dist::lanes

#endif
