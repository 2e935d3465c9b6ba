#pragma once
// The one runtime CPU-dispatch point for every SIMD kernel in the library:
// the batched sparse/dense LU of the lockstep solver (DESIGN.md §12) and the
// lane-parallel distance kernels of the matrix-profile engine (§15).
//
// Every vector kernel repeats its scalar counterpart's per-element
// arithmetic exactly (no FMA contraction, compares and selects in the scalar
// operand order), so the choice never changes a result bit — which is what
// lets the scalar-forced CI job (MDA_BATCH_FORCE_SCALAR=1) pin the vector
// paths by differential testing.

namespace mda::util {

/// True when this CPU can run the AVX2 kernels.
[[nodiscard]] bool avx2_available();

/// True when this CPU can additionally run the AVX-512 kernels.  A 512-bit
/// op covers 8 lanes with the instruction count of a 4-lane 256-bit op, and
/// the sparse kernels are bound by per-element bookkeeping rather than
/// arithmetic throughput — so 8-lane batches nearly halve the per-lane cost.
[[nodiscard]] bool avx512_available();

/// Force the portable scalar kernels even on SIMD hardware.  Seeded from
/// the MDA_BATCH_FORCE_SCALAR environment variable ("0"/unset = off);
/// settable at runtime for differential tests.
void set_force_scalar(bool on);
[[nodiscard]] bool force_scalar();

/// The effective kernel choice: AVX2 available and not forced scalar.
[[nodiscard]] bool use_avx2();

/// AVX-512 available and not forced scalar.
[[nodiscard]] bool use_avx512();

}  // namespace mda::util
