#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/backend.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda;
using namespace mda::core;

// The gap after `kind` is an explicit zeroed member rather than padding:
// gtest names each case after the parameter's raw bytes, and uninitialised
// padding would make the test names differ from build to build.
struct BackendCase {
  BackendCase(dist::DistanceKind k, std::size_t len) : kind(k), n(len) {}
  dist::DistanceKind kind;
  std::uint32_t zero = 0;
  std::size_t n;
};
static_assert(sizeof(BackendCase) == 16, "BackendCase must have no padding");

void fill_random(std::vector<double>& v, util::Rng& rng, double lo, double hi) {
  for (double& x : v) x = rng.uniform(lo, hi);
}

class WavefrontVsReference : public ::testing::TestWithParam<BackendCase> {};

TEST_P(WavefrontVsReference, TracksDigitalReference) {
  const auto& c = GetParam();
  util::Rng rng(77 + static_cast<std::uint64_t>(c.kind) * 13 + c.n);
  std::vector<double> p(c.n), q(c.n);
  fill_random(p, rng, -2.0, 2.0);
  fill_random(q, rng, -2.0, 2.0);
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = c.kind;
  spec.threshold = 0.5;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  const AnalogEval eval = eval_wavefront(config, spec, enc);
  ASSERT_TRUE(eval.ok) << eval.error;
  const double got = decode_output(config, spec, eval.out_volts, enc);
  const double ref = dist::compute(c.kind, p, q, spec.reference_params());
  // Analog + 8-bit converters: single-digit-percent accuracy, looser for
  // DTW (error accumulates along the path) and HauD (small outputs).
  double tol = 0.03 * std::abs(ref) + 0.1;
  if (c.kind == dist::DistanceKind::Dtw) tol = 0.06 * std::abs(ref) + 0.1;
  if (c.kind == dist::DistanceKind::Hausdorff) {
    tol = 0.12 * std::abs(ref) + 0.05;
  }
  EXPECT_NEAR(got, ref, tol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WavefrontVsReference,
    ::testing::Values(BackendCase{dist::DistanceKind::Dtw, 8},
                      BackendCase{dist::DistanceKind::Dtw, 16},
                      BackendCase{dist::DistanceKind::Lcs, 8},
                      BackendCase{dist::DistanceKind::Lcs, 16},
                      BackendCase{dist::DistanceKind::Edit, 8},
                      BackendCase{dist::DistanceKind::Edit, 16},
                      BackendCase{dist::DistanceKind::Hausdorff, 8},
                      BackendCase{dist::DistanceKind::Hausdorff, 16},
                      BackendCase{dist::DistanceKind::Hamming, 16},
                      BackendCase{dist::DistanceKind::Hamming, 32},
                      BackendCase{dist::DistanceKind::Manhattan, 16},
                      BackendCase{dist::DistanceKind::Manhattan, 32}));

class BehavioralVsWavefront : public ::testing::TestWithParam<BackendCase> {};

TEST_P(BehavioralVsWavefront, CloseAgreement) {
  const auto& c = GetParam();
  util::Rng rng(99 + static_cast<std::uint64_t>(c.kind) * 7 + c.n);
  std::vector<double> p(c.n), q(c.n);
  fill_random(p, rng, -2.0, 2.0);
  fill_random(q, rng, -2.0, 2.0);
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = c.kind;
  spec.threshold = 0.5;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  const AnalogEval wf = eval_wavefront(config, spec, enc);
  const AnalogEval bh = eval_behavioral(config, spec, enc);
  ASSERT_TRUE(wf.ok && bh.ok);
  // The behavioral model must track the circuit within a fraction of the
  // circuit-vs-reference error budget.
  EXPECT_NEAR(bh.out_volts, wf.out_volts,
              0.02 * std::abs(wf.out_volts) + 1.5e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BehavioralVsWavefront,
    ::testing::Values(BackendCase{dist::DistanceKind::Dtw, 10},
                      BackendCase{dist::DistanceKind::Lcs, 10},
                      BackendCase{dist::DistanceKind::Edit, 10},
                      BackendCase{dist::DistanceKind::Hausdorff, 10},
                      BackendCase{dist::DistanceKind::Hamming, 20},
                      BackendCase{dist::DistanceKind::Manhattan, 20}));

TEST(Encode, ScaleCompressesLargeDtwInputs) {
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  std::vector<double> p(30, 3.0), q(30, -3.0);
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  EXPECT_LT(enc.scale, 1.0);
  // The actual DTW value (180 here) must fit in the voltage headroom after
  // compression; the bound uses the diagonal-path estimate with warping
  // slack, so it also leaves margin.
  const double ref = dist::compute(spec.kind, p, q, spec.reference_params());
  EXPECT_LE(ref * config.voltage_resolution * enc.scale,
            config.v_max * 1.0001);
}

TEST(Encode, NoScaleForSmallInputs) {
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  std::vector<double> p = {0.1, 0.2}, q = {0.0, 0.1};
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  EXPECT_DOUBLE_EQ(enc.scale, 1.0);
  EXPECT_DOUBLE_EQ(enc.vstep_eff, config.vstep);
}

TEST(Encode, VstepShrinksForLongCountingSequences) {
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Edit;
  std::vector<double> p(60, 0.1), q(60, 0.2);
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  EXPECT_LT(enc.vstep_eff, config.vstep);
  EXPECT_LE(120 * enc.vstep_eff, config.v_max * 1.0001);
  EXPECT_DOUBLE_EQ(enc.scale, 1.0);
}

TEST(Encode, QuantizationToggle) {
  AcceleratorConfig quantized;
  AcceleratorConfig analogue = quantized;
  analogue.quantize_inputs = false;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  std::vector<double> p = {0.123456, 0.7}, q = {0.3, 0.4};
  const EncodedInputs a = encode_inputs(analogue, spec, p, q);
  const EncodedInputs b = encode_inputs(quantized, spec, p, q);
  EXPECT_DOUBLE_EQ(a.p_volts[0], 0.123456 * 0.02);
  EXPECT_NE(a.p_volts[0], b.p_volts[0]);  // quantized differs
  EXPECT_NEAR(a.p_volts[0], b.p_volts[0], 0.7 * 0.02 / 128.0);
}

TEST(Decode, RoundTripForValueDistances) {
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  EncodedInputs enc;
  enc.scale = 0.5;
  enc.vstep_eff = config.vstep;
  const double volts = 7.0 * config.voltage_resolution * enc.scale;
  EXPECT_NEAR(decode_output(config, spec, volts, enc), 7.0, 1e-12);
}

TEST(Decode, CountingDistancesUseVstep) {
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Hamming;
  EncodedInputs enc;
  enc.vstep_eff = 0.004;
  EXPECT_NEAR(decode_output(config, spec, 0.02, enc), 5.0, 1e-12);
}

TEST(Backends, DeterministicRepeatability) {
  util::Rng rng(5);
  std::vector<double> p(10), q(10);
  fill_random(p, rng, -1, 1);
  fill_random(q, rng, -1, 1);
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  const AnalogEval a = eval_wavefront(config, spec, enc);
  const AnalogEval b = eval_wavefront(config, spec, enc);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_DOUBLE_EQ(a.out_volts, b.out_volts);
}

TEST(Backends, UnifiedEvaluateDispatchesToEachBackend) {
  // evaluate(Backend, ...) is the single entry point the accelerator uses;
  // it must agree exactly with the per-backend functions it routes to.
  util::Rng rng(91);
  std::vector<double> p(6), q(6);
  fill_random(p, rng, -1.5, 1.5);
  fill_random(q, rng, -1.5, 1.5);
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);

  const AnalogEval behavioral = evaluate(Backend::Behavioral, config, spec,
                                         enc);
  const AnalogEval behavioral_direct = eval_behavioral(config, spec, enc);
  ASSERT_TRUE(behavioral.ok && behavioral_direct.ok);
  EXPECT_DOUBLE_EQ(behavioral.out_volts, behavioral_direct.out_volts);

  const AnalogEval wavefront = evaluate(Backend::Wavefront, config, spec,
                                        enc);
  const AnalogEval wavefront_direct = eval_wavefront(config, spec, enc);
  ASSERT_TRUE(wavefront.ok && wavefront_direct.ok);
  EXPECT_DOUBLE_EQ(wavefront.out_volts, wavefront_direct.out_volts);

  const AnalogEval fullspice = evaluate(Backend::FullSpice, config, spec,
                                        enc);
  ASSERT_TRUE(fullspice.ok) << fullspice.error;
  const double got = decode_output(config, spec, fullspice.out_volts, enc);
  const double want = decode_output(config, spec, behavioral.out_volts, enc);
  EXPECT_NEAR(got, want, 0.05 * std::abs(want) + 0.1);
}

TEST(Backends, WeightedDtwThroughWavefront) {
  std::vector<double> p = {1.0, 2.0, 0.5, 1.2};
  std::vector<double> q = {0.8, 1.7, 0.6, 1.0};
  std::vector<double> w(16, 2.0);
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  spec.pair_weights = w;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  const AnalogEval eval = eval_wavefront(config, spec, enc);
  ASSERT_TRUE(eval.ok) << eval.error;
  const double got = decode_output(config, spec, eval.out_volts, enc);
  const double ref = dist::compute(spec.kind, p, q, spec.reference_params());
  EXPECT_NEAR(got, ref, 0.05 * ref + 0.1);
}

}  // namespace
