// Batch-identity differential suite for the lockstep SoA solver stack
// (DESIGN.md §12).  The contract under test, at every layer:
//
//   * BatchedSparseLu / BatchedDenseLu produce, per lane, bit-identical
//     factors/solutions and ok flags to the scalar SparseLu / DenseLu on
//     that lane alone — including pivot-degradation guard failures, in both
//     guard modes, and whichever kernel (AVX2 or forced-scalar) runs.
//   * run_transient_lockstep is bit-identical (traces, final_x, counters)
//     to serial TransientSimulator::run per lane — with mixed-lane early
//     convergence and a lane falling into the Newton homotopy fallback
//     while its siblings proceed.
//   * The batch engine's width-W lockstep stream is bit-identical to the
//     width-1 scalar stream for every kind and both structured backends,
//     the default width runs no lockstep group, and fault plans force the
//     scalar path verbatim.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/batch_engine.hpp"
#include "devices/diode.hpp"
#include "distance/registry.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "spice/dense.hpp"
#include "spice/netlist.hpp"
#include "spice/primitives.hpp"
#include "spice/sparse.hpp"
#include "spice/transient.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/rng.hpp"

using namespace mda;

namespace {

// ------------------------------------------------------------------------
// SoA LU kernels: property/fuzz vs the scalar reference.
// ------------------------------------------------------------------------

struct RandomSparse {
  spice::CscMatrix base;                        ///< Pattern + base values.
  std::vector<std::vector<double>> lane_values; ///< Per-lane value streams.
};

/// Diagonally dominant random sparse system (MNA-conductance-shaped) with
/// `lanes` per-lane value perturbations on one shared pattern.
RandomSparse random_sparse(int n, std::size_t lanes, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> rows, cols;
  std::vector<double> vals;
  for (int i = 0; i < n; ++i) {
    double diag = 1.0;
    for (int k = 0; k < 4; ++k) {
      const int j = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      if (j == i) continue;
      const double v = rng.uniform(-1.0, 1.0);
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(v);
      diag += std::abs(v);
    }
    rows.push_back(i);
    cols.push_back(i);
    vals.push_back(diag);
  }
  RandomSparse rs;
  rs.base = spice::CscMatrix::from_triplets(n, rows, cols, vals);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<double> v = rs.base.values;
    // Same pattern, different values — the refactor regime.  Keep the
    // perturbation small so the pivot order stays healthy.
    for (double& x : v) x *= rng.uniform(0.9, 1.1);
    rs.lane_values.push_back(std::move(v));
  }
  return rs;
}

/// Scalar reference for one lane: a SparseLu factored on the base values
/// (same structure the batch adopts), refactored onto the lane values.
struct ScalarRef {
  spice::SparseLu lu;
  bool refactor_ok = false;
  std::vector<double> x;
};

ScalarRef scalar_reference(const RandomSparse& rs, std::size_t lane,
                           const std::vector<double>& b, bool bit_exact) {
  ScalarRef ref;
  ref.lu.set_bit_exact(bit_exact);
  spice::CscMatrix m = rs.base;
  EXPECT_TRUE(ref.lu.factor(m));
  m.values = rs.lane_values[lane];
  ref.refactor_ok = ref.lu.refactor(m);
  if (ref.refactor_ok) {
    ref.x = b;
    ref.lu.solve(ref.x);
  }
  return ref;
}

void expect_lane_bitwise(const std::vector<double>& want,
                         const std::vector<double>& got, const char* what,
                         std::size_t lane) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(&want[i], &got[i], sizeof(double)), 0)
        << what << ": lane " << lane << " x[" << i << "] " << want[i]
        << " vs " << got[i];
  }
}

class SparseKernelWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SparseKernelWidths, BatchedRefactorSolveMatchesScalarBitwise) {
  const std::size_t lanes = GetParam();
  for (const int n : {8, 24, 40}) {
    for (const bool bit_exact : {false, true}) {
      const RandomSparse rs =
          random_sparse(n, lanes, 77 + static_cast<std::uint64_t>(n));
      spice::SparseLu ref_lu;
      ref_lu.set_bit_exact(bit_exact);
      spice::CscMatrix m = rs.base;
      ASSERT_TRUE(ref_lu.factor(m));

      spice::BatchedSparseLu batch;
      ASSERT_TRUE(batch.adopt(ref_lu, rs.base, lanes));

      util::Rng rng(99);
      std::vector<std::vector<double>> rhs(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        rhs[l].resize(static_cast<std::size_t>(n));
        for (double& v : rhs[l]) v = rng.uniform(-2.0, 2.0);
        spice::CscMatrix lane_m = rs.base;
        lane_m.values = rs.lane_values[l];
        batch.load_lane_values(l, lane_m);
        batch.load_lane_rhs(l, rhs[l]);
      }
      std::vector<unsigned char> ok(lanes, 1);
      batch.refactor(ok.data());
      batch.solve();
      for (std::size_t l = 0; l < lanes; ++l) {
        const ScalarRef ref = scalar_reference(rs, l, rhs[l], bit_exact);
        ASSERT_EQ(ref.refactor_ok, ok[l] != 0) << "lane " << l;
        std::vector<double> x;
        batch.store_lane_solution(l, x);
        expect_lane_bitwise(ref.x, x, "sparse", l);
      }
    }
  }
}

TEST_P(SparseKernelWidths, PivotDegradationFailsSameLanesOnly) {
  const std::size_t lanes = GetParam();
  const int n = 24;
  RandomSparse rs = random_sparse(n, lanes, 4242);
  // Crush lane 0's values toward zero in one column region: the refactor
  // guard (frozen pivot vs column max) must reject exactly the lanes the
  // scalar refactor rejects, and the survivors must be untouched bitwise.
  for (std::size_t k = 0; k < rs.lane_values[0].size(); k += 3) {
    rs.lane_values[0][k] *= 1e-9;
  }
  spice::SparseLu ref_lu;
  spice::CscMatrix m = rs.base;
  ASSERT_TRUE(ref_lu.factor(m));
  spice::BatchedSparseLu batch;
  ASSERT_TRUE(batch.adopt(ref_lu, rs.base, lanes));

  util::Rng rng(5);
  std::vector<std::vector<double>> rhs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    rhs[l].resize(static_cast<std::size_t>(n));
    for (double& v : rhs[l]) v = rng.uniform(-1.0, 1.0);
    spice::CscMatrix lane_m = rs.base;
    lane_m.values = rs.lane_values[l];
    batch.load_lane_values(l, lane_m);
    batch.load_lane_rhs(l, rhs[l]);
  }
  std::vector<unsigned char> ok(lanes, 1);
  batch.refactor(ok.data());
  batch.solve();
  bool any_failed = false;
  for (std::size_t l = 0; l < lanes; ++l) {
    const ScalarRef ref = scalar_reference(rs, l, rhs[l], /*bit_exact=*/false);
    ASSERT_EQ(ref.refactor_ok, ok[l] != 0) << "lane " << l;
    any_failed = any_failed || !ref.refactor_ok;
    if (ref.refactor_ok) {
      std::vector<double> x;
      batch.store_lane_solution(l, x);
      expect_lane_bitwise(ref.x, x, "degraded batch", l);
    }
  }
  EXPECT_TRUE(any_failed) << "fuzz values did not trip the guard";
}

TEST_P(SparseKernelWidths, Avx2AndScalarKernelsAgreeBitwise) {
  const std::size_t lanes = GetParam();
  const int n = 32;
  const RandomSparse rs = random_sparse(n, lanes, 11);
  spice::SparseLu ref_lu;
  spice::CscMatrix m = rs.base;
  ASSERT_TRUE(ref_lu.factor(m));

  const bool prev_force = util::force_scalar();
  auto run = [&](bool force_scalar) {
    util::set_force_scalar(force_scalar);
    spice::BatchedSparseLu batch;
    EXPECT_TRUE(batch.adopt(ref_lu, rs.base, lanes));
    util::Rng rng(13);
    for (std::size_t l = 0; l < lanes; ++l) {
      std::vector<double> b(static_cast<std::size_t>(n));
      for (double& v : b) v = rng.uniform(-1.0, 1.0);
      spice::CscMatrix lane_m = rs.base;
      lane_m.values = rs.lane_values[l];
      batch.load_lane_values(l, lane_m);
      batch.load_lane_rhs(l, b);
    }
    std::vector<unsigned char> ok(lanes, 1);
    batch.refactor(ok.data());
    batch.solve();
    std::vector<std::vector<double>> xs(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_NE(ok[l], 0u);
      batch.store_lane_solution(l, xs[l]);
    }
    util::set_force_scalar(prev_force);
    return xs;
  };
  const auto scalar = run(true);
  const auto autod = run(false);
  // On hardware without AVX2 both runs take the scalar kernel and this
  // degenerates to a determinism check; restoring the prior force flag keeps
  // the MDA_BATCH_FORCE_SCALAR CI job in force for the remaining tests.
  for (std::size_t l = 0; l < lanes; ++l) {
    expect_lane_bitwise(scalar[l], autod[l], "kernel dispatch", l);
  }
}

TEST_P(SparseKernelWidths, DenseBatchMatchesScalarIncludingSingularLane) {
  const std::size_t lanes = GetParam();
  const int n = 9;
  util::Rng rng(21);
  std::vector<std::vector<double>> mats(lanes), rhs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    mats[l].resize(static_cast<std::size_t>(n) * n);
    for (double& v : mats[l]) v = rng.uniform(-1.0, 1.0);
    for (int i = 0; i < n; ++i) {
      mats[l][static_cast<std::size_t>(i) * n + i] += 4.0;
    }
    rhs[l].resize(static_cast<std::size_t>(n));
    for (double& v : rhs[l]) v = rng.uniform(-1.0, 1.0);
  }
  // Make the last lane singular (zero row) when there is one to spare.
  if (lanes > 1) {
    for (int c = 0; c < n; ++c) mats[lanes - 1][static_cast<std::size_t>(c)] = 0.0;
    for (int r = 0; r < n; ++r) {
      mats[lanes - 1][static_cast<std::size_t>(r) * n] = 0.0;
    }
  }

  spice::BatchedDenseLu batch;
  batch.resize(n, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    batch.load_lane_matrix(l, mats[l]);
    batch.load_lane_rhs(l, rhs[l]);
  }
  std::vector<unsigned char> ok(lanes, 1);
  batch.factor(ok.data());
  batch.solve();
  for (std::size_t l = 0; l < lanes; ++l) {
    spice::DenseLu ref;
    std::vector<double> a = mats[l];
    const bool want_ok = ref.factor(n, a);
    ASSERT_EQ(want_ok, ok[l] != 0) << "lane " << l;
    if (!want_ok) continue;
    std::vector<double> want = rhs[l];
    ref.solve(want);
    std::vector<double> got;
    batch.store_lane_solution(l, got);
    expect_lane_bitwise(want, got, "dense", l);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SparseKernelWidths,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ------------------------------------------------------------------------
// Lockstep transient vs serial, at the spice layer.
// ------------------------------------------------------------------------

/// A nonlinear RC/diode ladder big enough for the sparse path (>16
/// unknowns), parameterised per lane so lanes share structure but not
/// values or convergence behaviour.
struct LadderSim {
  spice::Netlist net;
  std::unique_ptr<spice::TransientSimulator> sim;
};

std::unique_ptr<LadderSim> make_ladder(std::size_t lane,
                                       spice::Tolerances tol = {}) {
  auto ls = std::make_unique<LadderSim>();
  spice::Netlist& net = ls->net;
  const double amp = 0.8 + 0.05 * static_cast<double>(lane);
  spice::NodeId prev = net.node("in");
  net.add<spice::VSource>(prev, spice::kGround,
                          spice::Waveform::step(0.0, amp, 0.0, 0.0));
  for (int i = 0; i < 20; ++i) {
    const spice::NodeId nxt = net.fresh_node("n");
    const double r = 1000.0 * (1.0 + 0.01 * static_cast<double>(lane + 1) *
                                          static_cast<double>(i % 5));
    net.add<spice::Resistor>(prev, nxt, r);
    net.add<spice::Capacitor>(nxt, spice::kGround, 1e-12);
    if (i % 3 == 0) net.add<dev::Diode>(nxt, spice::kGround);
    prev = nxt;
  }
  ls->sim = std::make_unique<spice::TransientSimulator>(net, tol);
  ls->sim->probe(prev, "out");
  return ls;
}

void expect_transient_bitwise(const spice::TransientResult& want,
                              const spice::TransientResult& got,
                              std::size_t lane) {
  EXPECT_EQ(want.ok, got.ok) << lane;
  EXPECT_EQ(want.error, got.error) << lane;
  EXPECT_EQ(want.steps, got.steps) << lane;
  EXPECT_EQ(want.total_newton_iterations, got.total_newton_iterations) << lane;
  EXPECT_EQ(want.fallback_steps, got.fallback_steps) << lane;
  EXPECT_EQ(std::memcmp(&want.t_end, &got.t_end, sizeof want.t_end), 0) << lane;
  ASSERT_EQ(want.final_x.size(), got.final_x.size()) << lane;
  for (std::size_t i = 0; i < want.final_x.size(); ++i) {
    EXPECT_EQ(std::memcmp(&want.final_x[i], &got.final_x[i], sizeof(double)),
              0)
        << "lane " << lane << " final_x[" << i << "]";
  }
  ASSERT_EQ(want.traces.size(), got.traces.size()) << lane;
  for (std::size_t p = 0; p < want.traces.size(); ++p) {
    ASSERT_EQ(want.traces[p].t.size(), got.traces[p].t.size()) << lane;
    for (std::size_t k = 0; k < want.traces[p].t.size(); ++k) {
      EXPECT_EQ(std::memcmp(&want.traces[p].v[k], &got.traces[p].v[k],
                            sizeof(double)),
                0)
          << "lane " << lane << " trace[" << k << "]";
    }
  }
}

/// Counter totals for a prefix (histograms excluded: the lockstep run-time
/// histogram legitimately records one sample per batch, not per lane).
std::map<std::string, std::uint64_t> spice_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const obs::MetricValue& m : obs::collect()) {
    if (m.kind != obs::MetricKind::Counter) continue;
    if (m.name.rfind("mda.spice.", 0) != 0) continue;
    if (m.name.rfind("mda.spice.batch_", 0) == 0) continue;
    out[m.name] = m.count;
  }
  return out;
}

class LockstepTransientWidths : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(LockstepTransientWidths, MatchesSerialBitwiseWithCounterParity) {
  const std::size_t lanes = GetParam();
  spice::TransientParams params;
  params.t_stop = 2e-9;
  params.dt_max = 20e-12;

  // Serial reference on fresh circuits, with its counter footprint.
  obs::reset();
  std::vector<spice::TransientResult> want;
  for (std::size_t l = 0; l < lanes; ++l) {
    auto ls = make_ladder(l);
    want.push_back(ls->sim->run(params));
    ASSERT_TRUE(want.back().ok) << want.back().error;
  }
  const auto serial_counters = spice_counters();

  // Lockstep on fresh identical circuits.
  obs::reset();
  std::vector<std::unique_ptr<LadderSim>> sims;
  std::vector<spice::TransientSimulator*> ptrs;
  std::vector<spice::TransientParams> lane_params(lanes, params);
  for (std::size_t l = 0; l < lanes; ++l) {
    sims.push_back(make_ladder(l));
    ptrs.push_back(sims.back()->sim.get());
  }
  const std::vector<spice::TransientResult> got =
      spice::run_transient_lockstep(
          std::span<spice::TransientSimulator* const>(ptrs),
          std::span<const spice::TransientParams>(lane_params));
  const auto lockstep_counters = spice_counters();

  for (std::size_t l = 0; l < lanes; ++l) {
    expect_transient_bitwise(want[l], got[l], l);
  }
  // Every scalar-path solver counter must advance by exactly the serial
  // amount — refactors, solves, iterations, steps, the lot.
  for (const auto& [name, count] : serial_counters) {
    const auto it = lockstep_counters.find(name);
    const std::uint64_t lock_count =
        it == lockstep_counters.end() ? 0 : it->second;
    EXPECT_EQ(count, lock_count) << name;
  }
}

TEST(LockstepTransient, FallbackLaneDoesNotPerturbSiblings) {
  // Lane 1 gets a Newton budget too small for the diode ladder: its plain
  // iteration fails, it walks the gmin/source homotopy (scalar, evicted),
  // and ultimately rejects into timestep underflow — while its siblings
  // keep converging in lockstep.  Everything must match serial bitwise.
  spice::TransientParams params;
  params.t_stop = 1e-9;
  const std::size_t lanes = 4;
  auto tol_for = [](std::size_t l) {
    spice::Tolerances tol;
    if (l == 1) tol.max_newton_iters = 1;
    return tol;
  };

  std::vector<spice::TransientResult> want;
  for (std::size_t l = 0; l < lanes; ++l) {
    auto ls = make_ladder(l, tol_for(l));
    want.push_back(ls->sim->run(params));
  }
  EXPECT_FALSE(want[1].ok);
  EXPECT_TRUE(want[0].ok && want[2].ok && want[3].ok);

  std::vector<std::unique_ptr<LadderSim>> sims;
  std::vector<spice::TransientSimulator*> ptrs;
  std::vector<spice::TransientParams> lane_params(lanes, params);
  for (std::size_t l = 0; l < lanes; ++l) {
    sims.push_back(make_ladder(l, tol_for(l)));
    ptrs.push_back(sims.back()->sim.get());
  }
  const auto got = spice::run_transient_lockstep(
      std::span<spice::TransientSimulator* const>(ptrs),
      std::span<const spice::TransientParams>(lane_params));
  for (std::size_t l = 0; l < lanes; ++l) {
    expect_transient_bitwise(want[l], got[l], l);
  }
}

TEST(LockstepTransient, MixedEarlyConvergenceRetiresLanesIndependently) {
  // Different horizons: short-horizon lanes retire rounds before the long
  // one finishes; the survivor must be unperturbed.
  const std::size_t lanes = 3;
  std::vector<spice::TransientParams> lane_params(lanes);
  lane_params[0].t_stop = 0.3e-9;
  lane_params[1].t_stop = 2e-9;
  lane_params[2].t_stop = 0.7e-9;

  std::vector<spice::TransientResult> want;
  for (std::size_t l = 0; l < lanes; ++l) {
    auto ls = make_ladder(l);
    want.push_back(ls->sim->run(lane_params[l]));
    ASSERT_TRUE(want.back().ok);
  }
  std::vector<std::unique_ptr<LadderSim>> sims;
  std::vector<spice::TransientSimulator*> ptrs;
  for (std::size_t l = 0; l < lanes; ++l) {
    sims.push_back(make_ladder(l));
    ptrs.push_back(sims.back()->sim.get());
  }
  const auto got = spice::run_transient_lockstep(
      std::span<spice::TransientSimulator* const>(ptrs),
      std::span<const spice::TransientParams>(lane_params));
  for (std::size_t l = 0; l < lanes; ++l) {
    expect_transient_bitwise(want[l], got[l], l);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LockstepTransientWidths,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ------------------------------------------------------------------------
// End-to-end batch identity: engine widths vs the scalar stream.
// ------------------------------------------------------------------------

std::vector<double> series(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(-1.5, 1.5);
  return s;
}

struct Stream {
  std::vector<double> p;
  std::vector<std::vector<double>> candidates;
  std::vector<core::BatchQuery> queries;
};

Stream make_stream(dist::DistanceKind kind, std::size_t queries,
                   std::size_t length) {
  Stream s;
  s.p = series(1000 + static_cast<std::uint64_t>(kind), length);
  for (std::size_t i = 0; i < queries; ++i) {
    s.candidates.push_back(series(2000 + 17 * i, length));
  }
  for (const auto& q : s.candidates) s.queries.push_back({s.p, q});
  return s;
}

void expect_result_bitwise(const core::ComputeResult& a,
                           const core::ComputeResult& b, const char* what) {
  EXPECT_EQ(std::memcmp(&a.value, &b.value, sizeof a.value), 0)
      << what << ": value " << a.value << " vs " << b.value;
  EXPECT_EQ(std::memcmp(&a.volts, &b.volts, sizeof a.volts), 0) << what;
  EXPECT_EQ(a.newton_iterations, b.newton_iterations) << what;
  EXPECT_EQ(a.solver_fallbacks, b.solver_fallbacks) << what;
  EXPECT_EQ(a.attempts, b.attempts) << what;
  EXPECT_EQ(a.backend_used, b.backend_used) << what;
  EXPECT_EQ(a.fault_detected, b.fault_detected) << what;
}

struct E2eCase {
  dist::DistanceKind kind;
  core::Backend backend;
};

class BatchIdentityE2e : public ::testing::TestWithParam<E2eCase> {};

TEST_P(BatchIdentityE2e, EveryWidthMatchesWidthOneBitwise) {
  const E2eCase c = GetParam();
  const std::size_t length = c.backend == core::Backend::FullSpice ? 3 : 4;
  const Stream stream = make_stream(c.kind, 6, length);

  core::DistanceSpec spec;
  spec.kind = c.kind;
  spec.threshold = 0.3;

  // Width 1 is the pre-batching scalar stream (one warm accelerator, serial
  // engine) — the baseline the contract pins every width against.
  core::AcceleratorConfig cfg;
  cfg.backend = c.backend;
  core::Accelerator base(cfg);
  base.configure(spec);
  core::BatchOptions w1;
  w1.num_threads = 1;
  w1.solver_batch_width = 1;
  const std::vector<core::ComputeResult> want =
      core::BatchEngine(w1).compute_batch(base, stream.queries);

  for (const std::size_t width : {2u, 4u, 8u}) {
    core::Accelerator acc(cfg);
    acc.configure(spec);
    core::BatchOptions opts;
    opts.num_threads = 1;
    opts.solver_batch_width = width;
    const std::vector<core::ComputeResult> got =
        core::BatchEngine(opts).compute_batch(acc, stream.queries);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_result_bitwise(want[i], got[i],
                            (dist::kind_name(c.kind) + " width " +
                             std::to_string(width))
                                .c_str());
    }
  }
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

std::uint64_t counter(const char* name) {
  for (const obs::MetricValue& m : obs::collect()) {
    if (m.name == name) return m.count;
  }
  return 0;
}

// Default engine options run FullSpice streams one query per task — no
// lockstep group at all — and still produce the width-8 results bit for bit.
TEST(BatchIdentityDefaults, DefaultWidthSkipsLockstepAndMatchesWidthEight) {
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    const Stream stream = make_stream(kind, 6, 3);
    core::DistanceSpec spec;
    spec.kind = kind;
    spec.threshold = 0.3;
    core::AcceleratorConfig cfg;
    cfg.backend = core::Backend::FullSpice;

    core::Accelerator acc8(cfg);
    acc8.configure(spec);
    core::BatchOptions w8;
    w8.solver_batch_width = 8;
    const auto want = core::BatchEngine(w8).compute_batch(acc8, stream.queries);

    core::Accelerator acc(cfg);
    acc.configure(spec);
    obs::reset();
    const auto got =
        core::BatchEngine(core::BatchOptions{}).compute_batch(acc, stream.queries);
    EXPECT_EQ(counter("mda.batch.lockstep_groups"), 0u) << dist::kind_name(kind);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_result_bitwise(want[i], got[i],
                            (dist::kind_name(kind) + " default width").c_str());
    }
  }
}

TEST(BatchIdentityFaults, FaultPlanForcesScalarPathBitwise) {
  // An active fault plan must bypass lockstep batching entirely (injection
  // and re-tuning mutate persistent device state), so a width-4 stream is
  // the scalar stream verbatim — provenance included.
  fault::FaultConfig fc;
  fc.seed = 31;
  fc.stuck_rate = 0.05;
  fc.dac_rate = 0.05;
  const auto plan = std::make_shared<const fault::FaultPlan>(fc);

  core::DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  const Stream stream = make_stream(spec.kind, 5, 3);

  core::AcceleratorConfig cfg;
  cfg.backend = core::Backend::FullSpice;
  cfg.faults = plan;
  core::Accelerator acc(cfg);
  acc.configure(spec);

  core::BatchOptions w1;
  w1.num_threads = 1;
  w1.solver_batch_width = 1;
  const auto want = core::BatchEngine(w1).compute_batch(acc, stream.queries);

  core::Accelerator acc2(cfg);
  acc2.configure(spec);
  core::BatchOptions w4;
  w4.num_threads = 1;
  w4.solver_batch_width = 4;
  const auto got = core::BatchEngine(w4).compute_batch(acc2, stream.queries);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_result_bitwise(want[i], got[i], "fault plan");
  }
}

}  // namespace
