#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/array_builder.hpp"
#include "core/backend.hpp"
#include "distance/dtw.hpp"
#include "distance/registry.hpp"
#include "obs/snapshot.hpp"
#include "spice/primitives.hpp"
#include "spice/transient.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda;
using namespace mda::core;

/// Full-SPICE evaluation of one function at small n against the digital
/// reference, exercising the complete generated array netlist.
double fullspice_value(dist::DistanceKind kind, const std::vector<double>& p,
                       const std::vector<double>& q, double threshold = 0.5) {
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = threshold;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  const AnalogEval eval = eval_full_spice(config, spec, enc);
  EXPECT_TRUE(eval.ok) << eval.error;
  return decode_output(config, spec, eval.out_volts, enc);
}

std::uint64_t counter(const char* name) {
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* v = snap.find(name);
  return v == nullptr ? 0 : v->count;
}

class FullSpiceSmall : public ::testing::TestWithParam<dist::DistanceKind> {};

TEST_P(FullSpiceSmall, MatchesDigitalReference) {
  const dist::DistanceKind kind = GetParam();
  util::Rng rng(21 + static_cast<std::uint64_t>(kind));
  const std::size_t n = 4;
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);
  DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.5;
  const double ref = dist::compute(kind, p, q, spec.reference_params());
  const double got = fullspice_value(kind, p, q);
  // Counting distances must land on the right integer; analog distances
  // within a few percent (finite gain, offsets, 8-bit converters).
  if (kind == dist::DistanceKind::Lcs || kind == dist::DistanceKind::Edit ||
      kind == dist::DistanceKind::Hamming) {
    EXPECT_NEAR(got, ref, 0.2);
    EXPECT_EQ(std::lround(got), std::lround(ref));
  } else {
    EXPECT_NEAR(got, ref, std::max(0.06, 0.08 * std::abs(ref)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FullSpiceSmall,
                         ::testing::ValuesIn(dist::kAllKinds));

TEST(FullSpiceDtw, CellByCellAgainstMatrix) {
  util::Rng rng(33);
  const std::size_t n = 3;
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.0, 1.0);
  for (double& v : q) v = rng.uniform(-1.0, 1.0);

  AcceleratorConfig config;
  config.quantize_inputs = false;  // isolate the circuit from the DAC
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  ArrayCircuit arr = build_array(config, spec, n, n);
  arr.set_dc_inputs(enc.p_volts, enc.q_volts);
  spice::TransientSimulator sim(*arr.net);
  const auto x = sim.dc_operating_point();
  ASSERT_FALSE(x.empty());

  const auto ref = dist::dtw_matrix(p, q);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const double cell =
          x[static_cast<std::size_t>(arr.pe_out[(i - 1) * n + (j - 1)])];
      const double expected =
          ref[i * (n + 1) + j] * config.voltage_resolution * enc.scale;
      EXPECT_NEAR(cell, expected, 1e-3) << "cell " << i << "," << j;
    }
  }
}

TEST(FullSpiceDtw, TransientMeasuresSettling) {
  std::vector<double> p = {1.0, 2.0, 0.5};
  std::vector<double> q = {0.8, 1.7, 0.6};
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  const AnalogEval eval = eval_full_spice(config, spec, enc);
  ASSERT_TRUE(eval.ok) << eval.error;
  EXPECT_GT(eval.convergence_time_s, 1e-10);
  EXPECT_LT(eval.convergence_time_s, 100e-9);
}

TEST(FullSpiceDtw, SakoeChibaBandRestrictsPath) {
  // With a wide detour optimal path, the banded circuit must return a
  // LARGER (band-constrained) distance, matching the banded reference.
  std::vector<double> p = {0.0, 0.0, 1.0, 2.0};
  std::vector<double> q = {0.0, 1.0, 2.0, 2.0};
  AcceleratorConfig config;
  DistanceSpec banded;
  banded.kind = dist::DistanceKind::Dtw;
  banded.band = 1;
  const double ref = dist::compute(dist::DistanceKind::Dtw, p, q,
                                   banded.reference_params());
  const EncodedInputs enc = encode_inputs(config, banded, p, q);
  const AnalogEval eval = eval_full_spice(config, banded, enc);
  ASSERT_TRUE(eval.ok) << eval.error;
  const double got = decode_output(config, banded, eval.out_volts, enc);
  EXPECT_NEAR(got, ref, std::max(0.05, 0.06 * ref));
}

TEST(FullSpiceRow, HammingTransient) {
  std::vector<double> p = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::vector<double> q = {1.0, 2.0, -3.0, 4.0, -5.0, 6.0};
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Hamming;
  spec.threshold = 0.5;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  const AnalogEval eval = eval_full_spice(config, spec, enc);
  ASSERT_TRUE(eval.ok) << eval.error;
  EXPECT_EQ(std::lround(decode_output(config, spec, eval.out_volts, enc)), 2);
}

TEST(ArrayBuilder, RejectsBadShapes) {
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  EXPECT_THROW(build_array(config, spec, 3, 4), std::invalid_argument);
  EXPECT_THROW(build_array(config, spec, 0, 0), std::invalid_argument);
}

TEST(ArrayBuilder, UnequalLengthsForMatrixKinds) {
  std::vector<double> p = {1.0, 2.0};
  std::vector<double> q = {1.0, 2.0, 3.0, 2.0};
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Lcs;
  spec.threshold = 0.3;
  const double ref =
      dist::compute(spec.kind, p, q, spec.reference_params());
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  const AnalogEval eval = eval_full_spice(config, spec, enc);
  ASSERT_TRUE(eval.ok) << eval.error;
  EXPECT_NEAR(decode_output(config, spec, eval.out_volts, enc), ref, 0.2);
}

// The settled FullSpice output against an independent oracle: the DC
// operating point of the same array with the inputs applied as DC sources.
// The transient projects its quiet tail onto that equilibrium (DESIGN.md
// §12), and every run must still end by the steady exit.
TEST(FullSpiceSettle, OutputEqualsDcEquilibrium) {
  const std::uint64_t runs0 = counter("mda.spice.transient_runs");
  const std::uint64_t exits0 = counter("mda.spice.transient_steady_exits");
  const std::uint64_t projections0 =
      counter("mda.spice.transient_projections");
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    for (std::uint64_t pair = 0; pair < 2; ++pair) {
      SCOPED_TRACE(dist::kind_name(kind) + " pair " + std::to_string(pair));
      util::Rng rng(91 + 7 * static_cast<std::uint64_t>(kind) + pair);
      std::vector<double> p(4), q(4);
      for (double& v : p) v = rng.uniform(-1.5, 1.5);
      for (double& v : q) v = rng.uniform(-1.5, 1.5);
      AcceleratorConfig config;
      DistanceSpec spec;
      spec.kind = kind;
      spec.threshold = 0.3;
      const EncodedInputs enc = encode_inputs(config, spec, p, q);
      const AnalogEval eval = eval_full_spice(config, spec, enc);
      ASSERT_TRUE(eval.ok) << eval.error;

      AcceleratorConfig cfg = config;
      cfg.vstep = enc.vstep_eff;
      ArrayCircuit arr = build_array(cfg, spec, 4, 4);
      arr.set_dc_inputs(enc.p_volts, enc.q_volts);
      spice::TransientSimulator sim(*arr.net);
      const std::vector<double> x = sim.dc_operating_point();
      ASSERT_FALSE(x.empty());
      const double v_dc = x[static_cast<std::size_t>(arr.out)];
      EXPECT_NEAR(eval.out_volts, v_dc, 1e-8 * std::max(std::abs(v_dc), 1e-3));
    }
  }
  const std::uint64_t runs = counter("mda.spice.transient_runs") - runs0;
  EXPECT_EQ(runs, 12u);
  EXPECT_EQ(counter("mda.spice.transient_steady_exits") - exits0, runs);
  EXPECT_GT(counter("mda.spice.transient_projections") - projections0, 0u);
}

// One RC pole, tau = 1 ns, driven by a 1 V step: the tail projection fires,
// the steady exit still ends the run, the 0.1% settling time stays where
// the analytic response puts it (tau * ln 1000) to within one dt_max, and
// the final value is the source's.  Trapezoidal companions keep the
// discretised pole on the analytic one (backward Euler's would lag by
// ~dt/2 per tau and move the crossing by 3.5 dt_max).
TEST(FullSpiceSettle, RcTailProjectsAndSteadyExitCertifies) {
  spice::Netlist net;
  const spice::NodeId in = net.node("in");
  const spice::NodeId out = net.node("out");
  net.add<spice::VSource>(in, spice::kGround,
                          spice::Waveform::step(0.0, 1.0, 0.0));
  net.add<spice::Resistor>(in, out, 100.0);
  net.add<spice::Capacitor>(out, spice::kGround, 10e-12);
  const double tau = 100.0 * 10e-12;
  spice::TransientSimulator sim(net);
  sim.probe(out, "out");
  spice::TransientParams params;
  params.method = spice::Integration::Trapezoidal;
  params.t_stop = 200e-9;

  const std::uint64_t projections0 =
      counter("mda.spice.transient_projections");
  const std::uint64_t rejected0 =
      counter("mda.spice.transient_projections_rejected");
  const std::uint64_t exits0 = counter("mda.spice.transient_steady_exits");
  const spice::TransientResult r = sim.run(params);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(counter("mda.spice.transient_projections") - projections0, 1u);
  EXPECT_EQ(counter("mda.spice.transient_projections_rejected") - rejected0,
            0u);
  EXPECT_EQ(counter("mda.spice.transient_steady_exits") - exits0, 1u);
  EXPECT_LT(r.t_end, 30 * tau);

  const spice::Trace& tr = r.trace("out");
  EXPECT_NEAR(spice::settling_time(tr, 1e-3, 1e-3), tau * std::log(1000.0),
              params.dt_max);
  // gmin (1e-12 S) against 100 ohm leaves 1e-10 V of divider error.
  EXPECT_NEAR(tr.final_value(), 1.0, 1e-9);
}

}  // namespace
