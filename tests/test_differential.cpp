// Cross-backend differential tests: for randomized short sequences, the
// Behavioral and Wavefront backends must agree with the exact digital
// reference (src/distance/*) within each backend's documented error
// envelope, and with each other within the behavioral-calibration budget,
// for all six distance functions.
//
// The envelopes restate the backend contracts from DESIGN.md §3 /
// test_backends.cpp: single-digit-percent analog accuracy with 8-bit
// converters, looser for DTW (error accumulates along the warping path)
// and Hausdorff (small outputs near the diode-max crossover).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "distance/registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda;
using namespace mda::core;

/// Documented per-kind error envelope: |analog - ref| <= rel * |ref| + abs.
struct ErrorEnvelope {
  double rel;
  double abs;
};

ErrorEnvelope wavefront_envelope(dist::DistanceKind kind) {
  switch (kind) {
    case dist::DistanceKind::Dtw:
      return {0.08, 0.15};  // DP accumulation along the path
    case dist::DistanceKind::Hausdorff:
      return {0.15, 0.08};  // diode-max soft knee on small outputs
    case dist::DistanceKind::Lcs:
    case dist::DistanceKind::Edit:
    case dist::DistanceKind::Hamming:
      return {0.05, 1.0};  // counting functions: one count of slack
    case dist::DistanceKind::Manhattan:
      return {0.04, 0.15};
  }
  return {0.05, 0.15};
}

ErrorEnvelope behavioral_envelope(dist::DistanceKind kind) {
  // The behavioral model is calibrated against SPICE, so it carries the
  // same envelope as the circuit it abstracts.
  return wavefront_envelope(kind);
}

/// Wavefront and Behavioral on (p, q) against the reference and each
/// other, within the envelopes above.
void expect_backends_agree(dist::DistanceKind kind,
                           const std::vector<double>& p,
                           const std::vector<double>& q) {
  const std::size_t n = p.size();
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.5;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  const AnalogEval wf = eval_wavefront(config, spec, enc);
  const AnalogEval bh = eval_behavioral(config, spec, enc);
  ASSERT_TRUE(wf.ok) << dist::kind_name(kind) << ": " << wf.error;
  ASSERT_TRUE(bh.ok) << dist::kind_name(kind) << ": " << bh.error;
  const double wf_value = decode_output(config, spec, wf.out_volts, enc);
  const double bh_value = decode_output(config, spec, bh.out_volts, enc);
  const double ref = dist::compute(kind, p, q, spec.reference_params());

  const ErrorEnvelope we = wavefront_envelope(kind);
  EXPECT_NEAR(wf_value, ref, we.rel * std::abs(ref) + we.abs)
      << "Wavefront vs reference, " << dist::kind_name(kind) << " n=" << n;
  const ErrorEnvelope be = behavioral_envelope(kind);
  EXPECT_NEAR(bh_value, ref, be.rel * std::abs(ref) + be.abs)
      << "Behavioral vs reference, " << dist::kind_name(kind) << " n=" << n;
  // Behavioral tracks the circuit tighter than either tracks the
  // reference (it is calibrated to the circuit, not to the reference).
  EXPECT_NEAR(bh.out_volts, wf.out_volts,
              0.02 * std::abs(wf.out_volts) + 1.5e-3)
      << "Behavioral vs Wavefront, " << dist::kind_name(kind) << " n=" << n;
}

class DifferentialRandomPair
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialRandomPair, AllBackendsAgreeForAllSixKinds) {
  util::Rng rng(GetParam());
  for (dist::DistanceKind kind : dist::kAllKinds) {
    const std::size_t n =
        dist::is_matrix_structure(kind) ? 6 + rng.index(4) : 10 + rng.index(8);
    std::vector<double> p(n), q(n);
    for (double& v : p) v = rng.uniform(-2.0, 2.0);
    for (double& v : q) v = rng.uniform(-2.0, 2.0);
    expect_backends_agree(kind, p, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialRandomPair,
                         ::testing::Range<std::uint64_t>(5000, 5012));

// Sequences of length 1-3: the smallest arrays and harnesses, down to a
// single PE (HauD's diode-max harnesses are the smallest circuits any
// backend solves).
class DifferentialShortPair
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialShortPair, AllBackendsAgreeForAllSixKinds) {
  util::Rng rng(GetParam());
  for (std::size_t n = 1; n <= 3; ++n) {
    for (dist::DistanceKind kind : dist::kAllKinds) {
      std::vector<double> p(n), q(n);
      for (double& v : p) v = rng.uniform(-2.0, 2.0);
      for (double& v : q) v = rng.uniform(-2.0, 2.0);
      expect_backends_agree(kind, p, q);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialShortPair,
                         ::testing::Range<std::uint64_t>(6000, 6012));

TEST(Differential, IdenticalSequencesStayNearZeroOnBothBackends) {
  util::Rng rng(77);
  for (dist::DistanceKind kind : dist::kAllKinds) {
    const std::size_t n = dist::is_matrix_structure(kind) ? 8 : 12;
    std::vector<double> p(n);
    for (double& v : p) v = rng.uniform(-1.5, 1.5);

    AcceleratorConfig config;
    DistanceSpec spec;
    spec.kind = kind;
    spec.threshold = 0.5;
    const EncodedInputs enc = encode_inputs(config, spec, p, p);
    const AnalogEval wf = eval_wavefront(config, spec, enc);
    const AnalogEval bh = eval_behavioral(config, spec, enc);
    ASSERT_TRUE(wf.ok && bh.ok) << dist::kind_name(kind);
    const double ref = dist::compute(kind, p, p, spec.reference_params());
    const double wf_value = decode_output(config, spec, wf.out_volts, enc);
    const double bh_value = decode_output(config, spec, bh.out_volts, enc);
    // d(x, x): 0 for the distances, n for LCS similarity.  One count /
    // tenth-unit of analog slack.
    const double tol = dist::DistanceKind::Lcs == kind ? 1.0 : 0.5;
    EXPECT_NEAR(wf_value, ref, tol) << dist::kind_name(kind);
    EXPECT_NEAR(bh_value, ref, tol) << dist::kind_name(kind);
  }
}

}  // namespace
