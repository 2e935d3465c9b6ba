#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "blocks/absblock.hpp"
#include "blocks/adder.hpp"
#include "blocks/buffer.hpp"
#include "blocks/diode_select.hpp"
#include "blocks/factory.hpp"
#include "blocks/subtractor.hpp"
#include "spice/transient.hpp"

namespace {

using namespace mda;
using namespace mda::spice;

/// Build-and-solve helper: constructs a block circuit with DC sources and
/// returns the voltage of `out`.
class BlockFixture {
 public:
  BlockFixture() : factory_(net_, blocks::AnalogEnv{}) {}

  NodeId source(const std::string& name, double volts) {
    const NodeId n = net_.node(name);
    net_.add<VSource>(n, kGround, Waveform::dc(volts));
    return n;
  }

  double solve(NodeId out) {
    factory_.finalize_parasitics();
    TransientSimulator sim(net_);
    const auto x = sim.dc_operating_point();
    EXPECT_FALSE(x.empty()) << "DC operating point failed";
    return x.empty() ? -999.0 : x[static_cast<std::size_t>(out)];
  }

  Netlist net_;
  blocks::BlockFactory factory_;
};

constexpr double kTol = 2e-4;  // generous: residual offsets and loading

TEST(DiffAmp, UnityGainDifference) {
  BlockFixture fx;
  const NodeId p = fx.source("p", 0.270);
  const NodeId n = fx.source("n", 0.120);
  const auto h = blocks::make_diff_amp(fx.factory_, p, n, 1.0, "da");
  EXPECT_NEAR(fx.solve(h.out), 0.150, kTol);
}

class DiffAmpGain : public ::testing::TestWithParam<double> {};

TEST_P(DiffAmpGain, GainIsRatio) {
  const double gain = GetParam();
  BlockFixture fx;
  const NodeId p = fx.source("p", 0.060);
  const NodeId n = fx.source("n", 0.020);
  const auto h = blocks::make_diff_amp(fx.factory_, p, n, gain, "da");
  EXPECT_NEAR(fx.solve(h.out), gain * 0.040, kTol * (1.0 + gain));
}

INSTANTIATE_TEST_SUITE_P(Gains, DiffAmpGain,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

TEST(DiffAmp, NegativeOutputAllowed) {
  BlockFixture fx;
  const NodeId p = fx.source("p", 0.020);
  const NodeId n = fx.source("n", 0.100);
  const auto h = blocks::make_diff_amp(fx.factory_, p, n, 1.0, "da");
  EXPECT_NEAR(fx.solve(h.out), -0.080, kTol);
}

TEST(DiffAmp, SetGainReconfigures) {
  BlockFixture fx;
  const NodeId p = fx.source("p", 0.050);
  const NodeId n = fx.source("n", 0.010);
  const auto h = blocks::make_diff_amp(fx.factory_, p, n, 1.0, "da");
  h.set_gain(3.0, fx.factory_.env().r_unit);
  EXPECT_NEAR(fx.solve(h.out), 0.120, 6e-4);  // untrimmed after set_gain
}

struct SumDiffCase {
  std::vector<double> plus;
  std::vector<double> minus;
};

// Names each case by its inputs; gtest's default byte dump of the vectors
// would embed heap addresses and change the test names on every build.
void PrintTo(const SumDiffCase& c, std::ostream* os) {
  const auto list = [os](const char* label, const std::vector<double>& v) {
    *os << label << " {";
    for (double x : v) *os << ' ' << x;
    *os << " }";
  };
  list("plus", c.plus);
  list(" minus", c.minus);
}

class SumDiffAmp : public ::testing::TestWithParam<SumDiffCase> {};

TEST_P(SumDiffAmp, ComputesSumMinusSum) {
  const SumDiffCase& c = GetParam();
  BlockFixture fx;
  std::vector<NodeId> plus, minus;
  double expected = 0.0;
  for (std::size_t i = 0; i < c.plus.size(); ++i) {
    plus.push_back(fx.source("p" + std::to_string(i), c.plus[i]));
    expected += c.plus[i];
  }
  for (std::size_t i = 0; i < c.minus.size(); ++i) {
    minus.push_back(fx.source("m" + std::to_string(i), c.minus[i]));
    expected -= c.minus[i];
  }
  const auto h = blocks::make_sum_diff_amp(fx.factory_, plus, minus, "sd");
  EXPECT_NEAR(fx.solve(h.out), expected, 5e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SumDiffAmp,
    ::testing::Values(SumDiffCase{{0.1}, {}}, SumDiffCase{{0.1, 0.2}, {}},
                      SumDiffCase{{0.1, 0.2}, {0.05}},
                      SumDiffCase{{0.3}, {0.1, 0.05}},
                      SumDiffCase{{0.1, 0.2, 0.15}, {0.25}},
                      SumDiffCase{{0.4}, {0.1, 0.1, 0.1}}));

TEST(InvertingAdder, UnitWeights) {
  BlockFixture fx;
  const NodeId a = fx.source("a", 0.030);
  const NodeId b = fx.source("b", 0.050);
  const auto h = blocks::make_inverting_adder(fx.factory_, {a, b}, {}, "ia");
  EXPECT_NEAR(fx.solve(h.out), -0.080, kTol);
}

TEST(InvertingAdder, MemristorRatioWeights) {
  BlockFixture fx;
  const NodeId a = fx.source("a", 0.030);
  const NodeId b = fx.source("b", 0.050);
  const auto h =
      blocks::make_inverting_adder(fx.factory_, {a, b}, {2.0, 0.5}, "ia");
  EXPECT_NEAR(fx.solve(h.out), -(2.0 * 0.030 + 0.5 * 0.050), 3e-4);
}

TEST(RowAdder, PositiveWeightedSum) {
  BlockFixture fx;
  std::vector<NodeId> ins;
  const double vals[] = {0.010, 0.020, 0.015, 0.005};
  for (int i = 0; i < 4; ++i) {
    ins.push_back(fx.source("i" + std::to_string(i), vals[i]));
  }
  const auto h =
      blocks::make_row_adder(fx.factory_, ins, {1.0, 2.0, 1.0, 4.0}, "ra");
  EXPECT_NEAR(fx.solve(h.out), 0.010 + 0.040 + 0.015 + 0.020, 5e-4);
}

TEST(Buffer, FollowsInput) {
  BlockFixture fx;
  const NodeId in = fx.source("in", 0.333);
  const auto h = blocks::make_buffer(fx.factory_, in, "buf");
  EXPECT_NEAR(fx.solve(h.out), 0.333, 1e-4);
}

struct AbsCase {
  double p, q, w;
};

class AbsBlock : public ::testing::TestWithParam<AbsCase> {};

TEST_P(AbsBlock, ComputesWeightedAbs) {
  const AbsCase& c = GetParam();
  BlockFixture fx;
  const NodeId p = fx.source("p", c.p);
  const NodeId q = fx.source("q", c.q);
  const auto h = blocks::make_abs_block(fx.factory_, p, q, c.w, "abs");
  EXPECT_NEAR(fx.solve(h.out), c.w * std::abs(c.p - c.q), 3e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AbsBlock,
    ::testing::Values(AbsCase{0.030, 0.010, 1.0}, AbsCase{0.010, 0.030, 1.0},
                      AbsCase{-0.030, 0.010, 1.0}, AbsCase{0.020, 0.020, 1.0},
                      AbsCase{0.0, 0.0, 1.0}, AbsCase{0.030, 0.010, 2.0},
                      AbsCase{0.040, -0.040, 0.5}));

TEST(DiodeMax, TwoToFiveInputs) {
  for (int count = 2; count <= 5; ++count) {
    BlockFixture fx;
    std::vector<NodeId> ins;
    double expected = -1e9;
    for (int i = 0; i < count; ++i) {
      const double v = 0.05 + 0.07 * i * (i % 2 ? 1 : -1) + 0.2;
      ins.push_back(fx.source("i" + std::to_string(i), v));
      expected = std::max(expected, v);
    }
    const auto h = blocks::make_diode_max(fx.factory_, ins, "max");
    EXPECT_NEAR(fx.solve(h.out), expected, 3e-4) << "count=" << count;
  }
}

TEST(DiodeMax, TiesAreExact) {
  BlockFixture fx;
  const NodeId a = fx.source("a", 0.250);
  const NodeId b = fx.source("b", 0.250);
  const auto h = blocks::make_diode_max(fx.factory_, {a, b}, "max");
  EXPECT_NEAR(fx.solve(h.out), 0.250, 3e-4);
}

TEST(MinViaMax, ComputesMinimum) {
  BlockFixture fx;
  const NodeId a = fx.source("a", 0.120);
  const NodeId b = fx.source("b", 0.080);
  const NodeId c = fx.source("c", 0.200);
  const auto h = blocks::make_min_via_max(fx.factory_, {a, b, c}, "min");
  EXPECT_NEAR(fx.solve(h.out), 0.080, 5e-4);
}

TEST(MinViaMax, HandlesZero) {
  BlockFixture fx;
  const NodeId a = fx.source("a", 0.120);
  const NodeId b = fx.source("b", 0.0);
  const auto h = blocks::make_min_via_max(fx.factory_, {a, b}, "min");
  EXPECT_NEAR(fx.solve(h.out), 0.0, 5e-4);
}

TEST(Factory, TracksInventory) {
  Netlist net;
  blocks::BlockFactory f(net, blocks::AnalogEnv{});
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  blocks::make_abs_block(f, a, b, 1.0, "abs");
  EXPECT_EQ(f.opamps().size(), 3u);       // two subtractors + buffer
  EXPECT_EQ(f.num_diodes(), 2u);
  EXPECT_GE(f.memristors().size(), 9u);   // 2x4 diff-amp + pulldown
}

TEST(Factory, ScopedNames) {
  Netlist net;
  blocks::BlockFactory f(net, blocks::AnalogEnv{});
  f.push_scope("pe_1_2");
  const NodeId n = f.node("abs_out");
  EXPECT_EQ(net.node_name(n), "pe_1_2/abs_out");
  f.pop_scope();
  const NodeId m = f.node("top");
  EXPECT_EQ(net.node_name(m), "top");
}

}  // namespace
