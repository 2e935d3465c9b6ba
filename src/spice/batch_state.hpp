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
// Kernel selection is a runtime decision made in util/cpu_dispatch.hpp:
// AVX-512 or AVX2 when the CPU supports them, a portable scalar fallback
// otherwise.  Every kernel executes the exact same per-lane arithmetic
// sequence as the serial solver (no FMA contraction, zero-skips and max
// scans replicated with masked blends), so the choice never changes a
// single result bit.

#include <cstddef>
#include <vector>

#include "util/cpu_dispatch.hpp"

namespace mda::spice::batch {

/// Doubles per AVX2 vector; lane strides are padded to a multiple of this.
inline constexpr std::size_t kSimdLanes = 4;

/// Lane count rounded up to the vector width (SoA stride).
[[nodiscard]] constexpr std::size_t padded_lanes(std::size_t lanes) {
  return (lanes + kSimdLanes - 1) / kSimdLanes * kSimdLanes;
}

// The dispatch queries under their solver-side names, for existing callers.
using util::avx2_available;
using util::avx512_available;
using util::use_avx2;
using util::use_avx512;

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
