#pragma once
// Host fingerprint for the committed BENCH_*.json baselines: the context a
// measured number needs to be read against.  MDA_BENCH_COMPILER and
// MDA_BENCH_BUILD_TYPE are defined for every bench target by
// bench/CMakeLists.txt.

#include <string>
#include <thread>

#include "util/cpu_dispatch.hpp"

namespace mda::bench {

/// One-line JSON object naming the host a --json bench ran on: hardware
/// threads, SIMD support, the SIMD kernel the batched LU and the lane-parallel
/// distance kernels pick, compiler and build type.
inline std::string host_fingerprint_json() {
  namespace simd = util;
  const char* kernel = simd::use_avx512() ? "avx512"
                       : simd::use_avx2() ? "avx2"
                                          : "scalar";
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"avx2\": " + (simd::avx2_available() ? "true" : "false") +
         ", \"avx512\": " + (simd::avx512_available() ? "true" : "false") +
         ", \"soa_kernel\": \"" + kernel + "\", \"compiler\": \"" +
         MDA_BENCH_COMPILER + "\", \"build_type\": \"" +
         MDA_BENCH_BUILD_TYPE + "\"}";
}

}  // namespace mda::bench
