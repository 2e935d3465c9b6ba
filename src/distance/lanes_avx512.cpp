// AVX-512 instantiation of the lane kernels: 8 pairs per vector.  Compiled
// with -mavx512f (src/CMakeLists.txt); lanes.cpp calls it only when
// util::use_avx512() holds.

#include "distance/lanes_simd.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>

namespace mda::dist::lanes {
namespace {

struct V8 {
  static constexpr std::size_t kLanes = 8;
  using Mask = __mmask8;
  __m512d v;

  static V8 load(const double* p) { return {_mm512_loadu_pd(p)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static V8 splat(double x) { return {_mm512_set1_pd(x)}; }
  static V8 add(V8 a, V8 b) { return {_mm512_add_pd(a.v, b.v)}; }
  static V8 sub(V8 a, V8 b) { return {_mm512_sub_pd(a.v, b.v)}; }
  static V8 mul(V8 a, V8 b) { return {_mm512_mul_pd(a.v, b.v)}; }
  static V8 abs(V8 a) { return {_mm512_abs_pd(a.v)}; }
  // The all-lanes masked forms: GCC 12's unmasked ones pass an undefined
  // vector that trips -Wmaybe-uninitialized.
  static V8 min(V8 a, V8 b) {
    return {_mm512_mask_min_pd(a.v, 0xFF, a.v, b.v)};
  }
  static V8 max(V8 a, V8 b) {
    return {_mm512_mask_max_pd(a.v, 0xFF, a.v, b.v)};
  }
  static Mask lt(V8 a, V8 b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
  }
  static Mask le(V8 a, V8 b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_LE_OQ);
  }
  static Mask gt(V8 a, V8 b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ);
  }
  static Mask eq(V8 a, V8 b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_EQ_OQ);
  }
  static V8 select(Mask m, V8 a, V8 b) {
    return {_mm512_mask_blend_pd(m, b.v, a.v)};
  }
  static V8 add_if(Mask m, V8 a, V8 b) {
    return {_mm512_mask_add_pd(a.v, m, a.v, b.v)};
  }
  static Mask none() { return 0; }
  static Mask either(Mask a, Mask b) { return static_cast<Mask>(a | b); }
  static bool all(Mask m) { return m == 0xFF; }
};

}  // namespace

bool run_avx512(const Job& job) {
  run<V8>(job);
  return true;
}

}  // namespace mda::dist::lanes

#else

namespace mda::dist::lanes {
bool run_avx512(const Job&) { return false; }
}  // namespace mda::dist::lanes

#endif
