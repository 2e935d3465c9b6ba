#pragma once
// Structure-of-arrays lane storage and SIMD dispatch for the batched
// same-structure solver (DESIGN.md §12).
//
// A batch of B independent queries of one circuit configuration shares a
// single MNA pattern and LU structure (PR-4/PR-5 guarantees); only values
// differ per lane.  Lane-major SoA buffers put the B values of one logical
// element contiguously, so the inner LU loops process all lanes of an
// element with one vector op while the index streams (row indices, column
// pointers, the L/U pattern) are read once per element instead of once per
// lane.
//
// Kernel selection is a runtime decision: AVX2 when the CPU supports it,
// a portable scalar fallback otherwise.  Both kernels execute the exact
// same per-lane arithmetic sequence as the serial solver (no FMA
// contraction, zero-skips and max scans replicated with masked blends), so
// the choice never changes a single result bit — which is what lets the
// scalar-forced CI job (MDA_BATCH_FORCE_SCALAR=1) pin the vector path by
// differential testing.

#include <cstddef>
#include <vector>

namespace mda::spice::batch {

/// Doubles per AVX2 vector; lane strides are padded to a multiple of this.
inline constexpr std::size_t kSimdLanes = 4;

/// Lane count rounded up to the vector width (SoA stride).
[[nodiscard]] constexpr std::size_t padded_lanes(std::size_t lanes) {
  return (lanes + kSimdLanes - 1) / kSimdLanes * kSimdLanes;
}

/// True when this CPU can run the AVX2 kernels.
[[nodiscard]] bool avx2_available();

/// True when this CPU can additionally run the AVX-512 kernels.  A 512-bit
/// op covers 8 lanes with the instruction count of a 4-lane 256-bit op, and
/// the sparse kernels are bound by per-element bookkeeping rather than
/// arithmetic throughput — so 8-lane batches nearly halve the per-lane cost.
[[nodiscard]] bool avx512_available();

/// Force the portable scalar kernels even on AVX2 hardware.  Seeded from
/// the MDA_BATCH_FORCE_SCALAR environment variable ("0"/unset = off);
/// settable at runtime for differential tests.
void set_force_scalar(bool on);
[[nodiscard]] bool force_scalar();

/// The effective kernel choice: AVX2 available and not forced scalar.
[[nodiscard]] bool use_avx2();

/// AVX-512 available and not forced scalar.  Callers additionally require a
/// stride divisible by 8 (whole 512-bit blocks) before taking this path.
[[nodiscard]] bool use_avx512();

/// Lane-major SoA buffer: `rows` logical elements by `lanes` lanes, stored
/// with a padded stride so every row starts vector-aligned work-wise
/// (padding lanes are zero-filled and their results ignored).
class SoaBuffer {
 public:
  void resize(std::size_t rows, std::size_t lanes) {
    lanes_ = lanes;
    stride_ = padded_lanes(lanes);
    data_.assign(rows * stride_, 0.0);
  }
  void zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] double* row(std::size_t i) { return data_.data() + i * stride_; }
  [[nodiscard]] const double* row(std::size_t i) const {
    return data_.data() + i * stride_;
  }
  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

 private:
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> data_;
};

}  // namespace mda::spice::batch
