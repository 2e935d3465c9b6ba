// Property-based sweeps: randomised invariants across seeds, exercising the
// digital references, the encoders and the behavioral analog model together.

#include <gtest/gtest.h>

#include <cmath>

#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/batch_engine.hpp"
#include "distance/dtw.hpp"
#include "distance/edit.hpp"
#include "distance/hamming.hpp"
#include "distance/hausdorff.hpp"
#include "distance/lcs.hpp"
#include "distance/manhattan.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda;
using namespace mda::dist;

class RandomPair : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    util::Rng rng(GetParam());
    const std::size_t n = 12 + rng.index(12);
    p_.resize(n);
    q_.resize(n);
    for (double& v : p_) v = rng.uniform(-2.5, 2.5);
    for (double& v : q_) v = rng.uniform(-2.5, 2.5);
  }
  std::vector<double> p_, q_;
};

TEST_P(RandomPair, DtwIsBoundedByManhattan) {
  EXPECT_LE(dtw(p_, q_), manhattan(p_, q_, {}) + 1e-12);
}

TEST_P(RandomPair, DtwIdentityAndSymmetry) {
  EXPECT_DOUBLE_EQ(dtw(p_, p_), 0.0);
  EXPECT_NEAR(dtw(p_, q_), dtw(q_, p_), 1e-12);
}

TEST_P(RandomPair, LcsBoundedByLength) {
  DistanceParams params;
  params.threshold = 0.4;
  const double v = lcs(p_, q_, params);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, static_cast<double>(std::min(p_.size(), q_.size())));
  // Self-LCS is the full length.
  EXPECT_DOUBLE_EQ(lcs(p_, p_, params), static_cast<double>(p_.size()));
}

TEST_P(RandomPair, EditDistanceMetricLikeProperties) {
  DistanceParams params;
  params.threshold = 0.4;
  EXPECT_DOUBLE_EQ(edit_distance(p_, p_, params), 0.0);
  const double pq = edit_distance(p_, q_, params);
  EXPECT_NEAR(pq, edit_distance(q_, p_, params), 1e-12);
  EXPECT_LE(pq, static_cast<double>(std::max(p_.size(), q_.size())) + 1e-12);
  // Hamming dominates edit distance for equal lengths (substitutions only
  // is one admissible edit script).
  EXPECT_LE(pq, hamming(p_, q_, params) + 1e-12);
}

TEST_P(RandomPair, HausdorffBounds) {
  const double directed = hausdorff_directed(p_, q_);
  const double symmetric = hausdorff(p_, q_);
  EXPECT_GE(directed, 0.0);
  EXPECT_LE(directed, symmetric + 1e-12);
  // Any single pairwise distance involving each q is an upper bound source:
  // directed <= max_j |p_0 - q_j|.
  double bound = 0.0;
  for (double qv : q_) bound = std::max(bound, std::abs(p_[0] - qv));
  EXPECT_LE(directed, bound + 1e-12);
  EXPECT_DOUBLE_EQ(hausdorff(p_, p_), 0.0);
}

TEST_P(RandomPair, HammingFractionInUnitInterval) {
  DistanceParams params;
  params.threshold = 0.4;
  const double h = hamming(p_, q_, params);
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, static_cast<double>(p_.size()));
  EXPECT_DOUBLE_EQ(hamming(p_, p_, params), 0.0);
}

TEST_P(RandomPair, ManhattanTriangleInequality) {
  util::Rng rng(GetParam() ^ 0xABCD);
  std::vector<double> r(p_.size());
  for (double& v : r) v = rng.uniform(-2.5, 2.5);
  EXPECT_LE(manhattan(p_, q_, {}),
            manhattan(p_, r, {}) + manhattan(r, q_, {}) + 1e-12);
}

TEST_P(RandomPair, EncodedVoltagesRespectHeadroom) {
  core::AcceleratorConfig config;
  for (DistanceKind kind : kAllKinds) {
    core::DistanceSpec spec;
    spec.kind = kind;
    spec.threshold = 0.4;
    const core::EncodedInputs enc = core::encode_inputs(config, spec, p_, q_);
    for (double v : enc.p_volts) EXPECT_LE(std::abs(v), config.env.vcc);
    for (double v : enc.q_volts) EXPECT_LE(std::abs(v), config.env.vcc);
    EXPECT_GT(enc.scale, 0.0);
    EXPECT_LE(enc.scale, 1.0);
    EXPECT_GT(enc.vstep_eff, 0.0);
  }
}

TEST_P(RandomPair, BehavioralBackendTracksReferenceEverywhere) {
  core::AcceleratorConfig config;
  config.quantize_inputs = false;  // property: pure circuit error is tiny
  for (DistanceKind kind : kAllKinds) {
    core::DistanceSpec spec;
    spec.kind = kind;
    spec.threshold = 0.4;
    const core::EncodedInputs enc = core::encode_inputs(config, spec, p_, q_);
    const core::AnalogEval eval = core::eval_behavioral(config, spec, enc);
    ASSERT_TRUE(eval.ok);
    const double got = core::decode_output(config, spec, eval.out_volts, enc);
    // Threshold-based functions are legitimately ambiguous for element
    // pairs landing within the comparator's error band of Vthre: bracket
    // the reference over threshold +- the ambiguity (all three counting
    // functions are monotone in the threshold).
    auto ref_at = [&](double thre) {
      core::DistanceSpec s2 = spec;
      s2.threshold = thre;
      return compute(kind, p_, q_, s2.reference_params());
    };
    const double ambiguity = 0.02;  // value units (~0.4 mV at 20 mV/unit)
    const double r1 = ref_at(spec.threshold - ambiguity);
    const double r2 = ref_at(spec.threshold + ambiguity);
    const double lo = std::min(r1, r2);
    const double hi = std::max(r1, r2);
    // Fixed circuit-voltage errors decode to 1/scale value units when range
    // compression is active, so the absolute term grows accordingly.
    const double tol =
        0.025 * std::max(std::abs(lo), std::abs(hi)) + 0.06 / enc.scale;
    EXPECT_GE(got, lo - tol) << kind_name(kind);
    EXPECT_LE(got, hi + tol) << kind_name(kind);
  }
}

TEST_P(RandomPair, BehavioralMonotoneUnderScaling) {
  // Scaling both inputs by a positive constant scales MD accordingly
  // through the whole encode -> analog -> decode pipeline.
  core::AcceleratorConfig config;
  config.quantize_inputs = false;
  core::DistanceSpec spec;
  spec.kind = DistanceKind::Manhattan;
  std::vector<double> p2(p_.size()), q2(q_.size());
  for (std::size_t i = 0; i < p_.size(); ++i) {
    p2[i] = 0.5 * p_[i];
    q2[i] = 0.5 * q_[i];
  }
  const auto enc1 = core::encode_inputs(config, spec, p_, q_);
  const auto enc2 = core::encode_inputs(config, spec, p2, q2);
  const double d1 = core::decode_output(
      config, spec, core::eval_behavioral(config, spec, enc1).out_volts, enc1);
  const double d2 = core::decode_output(
      config, spec, core::eval_behavioral(config, spec, enc2).out_volts, enc2);
  EXPECT_NEAR(d1, 2.0 * d2, 0.02 * std::abs(d1) + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPair,
                         ::testing::Range<std::uint64_t>(1000, 1040));

// ---- Properties exercised through the batch engine ----
//
// The same invariants, but the evaluations flow through BatchEngine ->
// Accelerator (behavioral backend), so the checks cover the whole batched
// query path, not just the scalar entry points.

class BatchedProperties : public RandomPair {
 protected:
  static core::Accelerator make_acc(DistanceKind kind) {
    core::DistanceSpec spec;
    spec.kind = kind;
    spec.threshold = 0.4;
    core::Accelerator acc;
    acc.configure(spec, core::Backend::Behavioral);
    return acc;
  }
  core::BatchEngine engine_{[] {
    core::BatchOptions opts;
    opts.num_threads = 4;
    return opts;
  }()};
};

TEST_P(BatchedProperties, SymmetryThroughBatchEngine) {
  // DTW, MD and HamD are symmetric; evaluate (p,q) and (q,p) as one batch
  // and compare within the analog error envelope.
  for (DistanceKind kind : {DistanceKind::Dtw, DistanceKind::Manhattan,
                            DistanceKind::Hamming}) {
    const core::Accelerator acc = make_acc(kind);
    const std::vector<core::BatchQuery> queries = {{p_, q_}, {q_, p_}};
    const std::vector<double> d = engine_.compute_distances(acc, queries);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_NEAR(d[0], d[1], 0.02 * std::abs(d[0]) + 0.25) << kind_name(kind);
  }
}

TEST_P(BatchedProperties, HausdorffSymmetrisedThroughBatchEngine) {
  // The fabric computes the DIRECTED Hausdorff (Fig. 2(d2)); the symmetric
  // distance is the max over both orientations, batched as two queries.
  const core::Accelerator acc = make_acc(DistanceKind::Hausdorff);
  const std::vector<core::BatchQuery> queries = {{p_, q_}, {q_, p_}};
  const std::vector<double> d = engine_.compute_distances(acc, queries);
  const double symmetric = std::max(d[0], d[1]);
  const double ref = hausdorff(p_, q_);
  EXPECT_NEAR(symmetric, ref, 0.15 * std::abs(ref) + 0.1);
  // And the symmetrised value itself is orientation-independent.
  const std::vector<core::BatchQuery> flipped = {{q_, p_}, {p_, q_}};
  const std::vector<double> d2 = engine_.compute_distances(acc, flipped);
  EXPECT_DOUBLE_EQ(symmetric, std::max(d2[0], d2[1]));
}

TEST_P(BatchedProperties, IdentityThroughBatchEngine) {
  // d(x, x) stays near zero for every distance kind (n for LCS).
  for (DistanceKind kind : kAllKinds) {
    const core::Accelerator acc = make_acc(kind);
    const std::vector<core::BatchQuery> queries = {{p_, p_}, {q_, q_}};
    const std::vector<double> d = engine_.compute_distances(acc, queries);
    if (kind == DistanceKind::Lcs) {
      EXPECT_NEAR(d[0], static_cast<double>(p_.size()), 1.0)
          << kind_name(kind);
      EXPECT_NEAR(d[1], static_cast<double>(q_.size()), 1.0)
          << kind_name(kind);
    } else {
      EXPECT_NEAR(d[0], 0.0, 0.5) << kind_name(kind);
      EXPECT_NEAR(d[1], 0.0, 0.5) << kind_name(kind);
    }
  }
}

TEST_P(BatchedProperties, ManhattanMonotoneUnderScalingThroughBatchEngine) {
  // Scaling both inputs by growing positive factors grows MD through the
  // whole batched encode -> analog -> decode pipeline.
  const core::Accelerator acc = make_acc(DistanceKind::Manhattan);
  const std::vector<double> factors = {0.25, 0.5, 1.0, 2.0};
  std::vector<std::vector<double>> ps, qs;
  for (double f : factors) {
    std::vector<double> ps_f(p_.size()), qs_f(q_.size());
    for (std::size_t i = 0; i < p_.size(); ++i) ps_f[i] = f * p_[i];
    for (std::size_t i = 0; i < q_.size(); ++i) qs_f[i] = f * q_[i];
    ps.push_back(std::move(ps_f));
    qs.push_back(std::move(qs_f));
  }
  std::vector<core::BatchQuery> queries;
  for (std::size_t k = 0; k < factors.size(); ++k) {
    queries.push_back({ps[k], qs[k]});
  }
  const std::vector<double> d = engine_.compute_distances(acc, queries);
  for (std::size_t k = 0; k + 1 < factors.size(); ++k) {
    // Strictly increasing up to analog slack (factors double each step, so
    // the separation dwarfs the error envelope for non-degenerate pairs).
    EXPECT_LT(d[k], d[k + 1] + 0.05) << "factor " << factors[k];
    const double expected_ratio = factors[k + 1] / factors[k];
    EXPECT_NEAR(d[k + 1], expected_ratio * d[k],
                0.05 * std::abs(d[k + 1]) + 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedProperties,
                         ::testing::Range<std::uint64_t>(1000, 1012));

}  // namespace
