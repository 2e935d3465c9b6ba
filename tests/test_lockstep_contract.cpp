// Group-call contract: Accelerator::try_compute_lockstep and
// core::eval_full_spice_batch evaluate a group of queries exactly as the
// per-query entry points do.  Outcome i (value, provenance or error) is
// bit-identical to try_compute(queries[i]), and AnalogEval i to
// evaluate(Backend::FullSpice, ..., encs[i]).  The benchmark runner's
// replay_equals_lockstep and lockstep_groups_equal_batch gates rest on it.
//
// The group mixes valid lanes with a spec-mismatched lane, an
// unequal-length lane (invalid on the equal-length kinds), a lane with a
// backend override and an empty lane.  It runs in groups of width 2, 4 and
// 8 for all six kinds, on healthy accelerators of both structured backends
// and on FullSpice accelerators under a fault plan; BatchEngine's default
// one-task-per-query stream must match groups of eight as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/batch_engine.hpp"
#include "distance/registry.hpp"
#include "fault/plan.hpp"
#include "util/rng.hpp"

using namespace mda;

namespace {

std::vector<double> series(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(-1.5, 1.5);
  return s;
}

std::vector<core::QueryRequest> mixed_group(dist::DistanceKind kind,
                                            std::size_t length) {
  const std::vector<double> p =
      series(1000 + static_cast<std::uint64_t>(kind), length);
  const auto candidate = [&](std::size_t i) {
    return series(2000 + 17 * i, length);
  };
  std::vector<core::QueryRequest> g;
  for (std::size_t i = 0; i < 4; ++i) {
    g.push_back(core::QueryRequest::owning(p, candidate(i)));
  }
  core::QueryRequest mismatched = core::QueryRequest::owning(p, candidate(4));
  mismatched.kind = kind == dist::DistanceKind::Dtw
                        ? dist::DistanceKind::Manhattan
                        : dist::DistanceKind::Dtw;
  g.push_back(std::move(mismatched));
  g.push_back(core::QueryRequest::owning(p, series(3000, length - 1)));
  core::QueryRequest overridden = core::QueryRequest::owning(p, candidate(5));
  overridden.backend = core::Backend::Behavioral;
  g.push_back(std::move(overridden));
  g.push_back(core::QueryRequest::owning(p, {}));
  g.push_back(core::QueryRequest::owning(p, candidate(6)));
  return g;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_eval_bitwise(const core::AnalogEval& a, const core::AnalogEval& b,
                         const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.error, b.error) << what;
  EXPECT_TRUE(same_bits(a.out_volts, b.out_volts)) << what;
  EXPECT_TRUE(same_bits(a.convergence_time_s, b.convergence_time_s)) << what;
  EXPECT_EQ(a.newton_iterations, b.newton_iterations) << what;
  EXPECT_EQ(a.solver_fallbacks, b.solver_fallbacks) << what;
  EXPECT_EQ(a.quarantined_cells, b.quarantined_cells) << what;
  EXPECT_EQ(a.fault_detected, b.fault_detected) << what;
}

/// Runs `group` per query on one accelerator and in groups of width 2, 4
/// and 8 on another (both built from `cfg`), and replays the lanes
/// try_compute accepts through eval_full_spice_batch against per-lane
/// evaluate(); everything must agree bitwise.
void expect_groups_match_per_query(const core::AcceleratorConfig& cfg,
                                   const core::DistanceSpec& spec,
                                   const std::vector<core::QueryRequest>& group,
                                   const std::string& tag) {
  core::Accelerator base(cfg);
  base.configure(spec);
  std::vector<core::QueryResponse> want;
  for (std::size_t i = 0; i < group.size(); ++i) {
    want.push_back(core::QueryResponse::from(i, 0, base.try_compute(group[i])));
  }
  // The mix must really mix: some lanes succeed, some are rejected.
  EXPECT_TRUE(std::any_of(want.begin(), want.end(),
                          [](const auto& r) { return r.ok(); }))
      << tag;
  EXPECT_FALSE(std::all_of(want.begin(), want.end(),
                           [](const auto& r) { return r.ok(); }))
      << tag;

  core::Accelerator acc(cfg);
  acc.configure(spec);
  for (const std::size_t width : {2u, 4u, 8u}) {
    for (std::size_t begin = 0; begin < group.size(); begin += width) {
      const std::size_t end = std::min(group.size(), begin + width);
      const std::vector<core::ComputeOutcome> got = acc.try_compute_lockstep(
          std::span(group).subspan(begin, end - begin));
      ASSERT_EQ(got.size(), end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        EXPECT_TRUE(core::bitwise_equal(
            want[i], core::QueryResponse::from(i, 0, got[i - begin])))
            << tag << " width " << width << " lane " << i;
      }
    }
  }

  std::vector<core::EncodedInputs> encs;
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (want[i].status == core::QueryStatus::InvalidInput) continue;
    encs.push_back(core::encode_inputs(cfg, spec, group[i].p, group[i].q));
  }
  core::Accelerator fresh(cfg);
  fresh.configure(spec);
  const std::vector<core::AnalogEval> batch =
      core::eval_full_spice_batch(acc.config(), spec, encs);
  ASSERT_EQ(batch.size(), encs.size());
  for (std::size_t i = 0; i < encs.size(); ++i) {
    expect_eval_bitwise(core::evaluate(core::Backend::FullSpice,
                                       fresh.config(), spec, encs[i]),
                        batch[i], tag + " eval lane " + std::to_string(i));
  }
}

core::DistanceSpec spec_for(dist::DistanceKind kind) {
  core::DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.3;
  return spec;
}

struct E2eCase {
  dist::DistanceKind kind;
  core::Backend backend;
};

class BatchIdentityE2e : public ::testing::TestWithParam<E2eCase> {};

// "Width one" is try_compute per query; every group width must match it.
TEST_P(BatchIdentityE2e, EveryWidthMatchesWidthOneBitwise) {
  const E2eCase c = GetParam();
  const std::size_t length = c.backend == core::Backend::FullSpice ? 3 : 4;
  core::AcceleratorConfig cfg;
  cfg.backend = c.backend;
  expect_groups_match_per_query(cfg, spec_for(c.kind),
                                mixed_group(c.kind, length),
                                dist::kind_name(c.kind));
}

std::vector<E2eCase> all_e2e_cases() {
  std::vector<E2eCase> cases;
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    cases.push_back({kind, core::Backend::FullSpice});
    cases.push_back({kind, core::Backend::Wavefront});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSixBothBackends, BatchIdentityE2e,
                         ::testing::ValuesIn(all_e2e_cases()));

// A fault plan (injection and re-tuning mutate persistent device state)
// leaves every group call equal to the per-query scalar path, provenance
// included.
TEST(BatchIdentityFaults, FaultPlanForcesScalarPathBitwise) {
  fault::FaultConfig fc;
  fc.seed = 31;
  fc.stuck_rate = 0.05;
  fc.dac_rate = 0.05;
  core::AcceleratorConfig cfg;
  cfg.backend = core::Backend::FullSpice;
  cfg.faults = std::make_shared<const fault::FaultPlan>(fc);
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    expect_groups_match_per_query(cfg, spec_for(kind), mixed_group(kind, 3),
                                  dist::kind_name(kind) + " faulted");
  }
}

// BatchEngine runs one task per query (its solver_batch_width is fixed at
// 1); its stream equals try_compute_lockstep over groups of eight, which is
// how the benchmark runner checks the engine.
TEST(BatchIdentityDefaults, DefaultWidthSkipsLockstepAndMatchesWidthEight) {
  static_assert(core::BatchOptions::solver_batch_width == 1);
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    std::vector<core::QueryRequest> stream;
    for (std::size_t i = 0; i < 10; ++i) {
      stream.push_back(core::QueryRequest::owning(
          series(1000 + static_cast<std::uint64_t>(kind), 3),
          series(2000 + 17 * i, 3)));
    }
    core::AcceleratorConfig cfg;
    cfg.backend = core::Backend::FullSpice;
    core::Accelerator acc(cfg);
    acc.configure(spec_for(kind));
    const std::vector<core::ComputeOutcome> got =
        core::BatchEngine(core::BatchOptions{}).try_compute_batch(acc, stream);

    core::Accelerator acc8(cfg);
    acc8.configure(spec_for(kind));
    ASSERT_EQ(got.size(), stream.size());
    for (std::size_t begin = 0; begin < stream.size(); begin += 8) {
      const std::size_t end = std::min(stream.size(), begin + 8);
      const std::vector<core::ComputeOutcome> want = acc8.try_compute_lockstep(
          std::span(stream).subspan(begin, end - begin));
      for (std::size_t i = begin; i < end; ++i) {
        ASSERT_TRUE(got[i].ok()) << dist::kind_name(kind) << " lane " << i;
        EXPECT_TRUE(core::bitwise_equal(want[i - begin].value(),
                                        got[i].value()))
            << dist::kind_name(kind) << " lane " << i;
      }
    }
  }
}

}  // namespace
