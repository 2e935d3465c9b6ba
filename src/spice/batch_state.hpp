#pragma once
// Solver-side names of the CPU-dispatch queries.  Kept only because the
// benchmark runner (perfbench/runner/main.cpp) includes this header to
// report the host's SIMD kernel choice.

#include "util/cpu_dispatch.hpp"

namespace mda::spice::batch {

using util::avx2_available;
using util::avx512_available;
using util::use_avx2;
using util::use_avx512;

}  // namespace mda::spice::batch
