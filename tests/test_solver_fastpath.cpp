// Solver fast-path coverage (DESIGN.md §10):
//  * full-transient bit-identity between the cached-structure + LU-refactor
//    fast path and the full-repivoting reference mode, for all six kinds;
//  * sparse_lu_factors collapsing to ~1 per pattern while refactors absorb
//    the remaining linearised solves;
//  * Newton fallback iteration accounting (gmin / source stepping results
//    must carry the summed homotopy cost, and flag used_fallback);
//  * the transient step controller refusing to grow dt off the back of a
//    fallback-recovered (near-failing) step;
//  * the pivot-stable fill-reducing elimination order: a valid permutation,
//    a pure function of the stamp pattern, guarded op-amp / comparator
//    branch columns after their two-hop input nodes, and refactors still
//    absorbing the factorisation load under it;
//  * the partial restamp both Newton paths use: at every iterate of a full
//    transient, for all six kinds and under a fault plan, replaying the
//    solve point's recording assembles byte-identically to a full stamp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "core/array_builder.hpp"
#include "core/backend.hpp"
#include "fault/injection.hpp"
#include "fault/plan.hpp"
#include "obs/snapshot.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "spice/newton.hpp"
#include "spice/ordering.hpp"
#include "spice/transient.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda;
using namespace mda::core;

std::uint64_t counter_value(const std::string& name) {
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* m = snap.find(name);
  return m ? m->count : 0;
}

spice::TransientResult run_array_transient(dist::DistanceKind kind,
                                           std::size_t n, bool allow_refactor,
                                           bool bit_exact = false,
                                           int* num_unknowns = nullptr) {
  util::Rng rng(31 + static_cast<std::uint64_t>(kind));
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);

  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.3;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  AcceleratorConfig cfg = config;
  cfg.vstep = enc.vstep_eff;
  ArrayCircuit array = build_array(cfg, spec, n, n);
  array.set_step_inputs(enc.p_volts, enc.q_volts, 0.0);

  spice::Tolerances tol;
  tol.allow_lu_refactor = allow_refactor;
  tol.lu_refactor_bit_exact = bit_exact;
  spice::TransientSimulator sim(*array.net, tol);
  sim.probe(array.out, "out");
  if (num_unknowns) *num_unknowns = sim.mna().num_unknowns();
  spice::TransientParams params;
  params.t_stop = 5e-9;
  return sim.run(params);
}

class SolverFastPath : public ::testing::TestWithParam<dist::DistanceKind> {};

// In bit-exact mode the refactor fast path must be invisible in the
// results: every probe sample of a full transient matches the
// full-repivoting reference mode bit for bit, for every distance kind.
TEST_P(SolverFastPath, TransientBitIdenticalWithAndWithoutRefactor) {
  const dist::DistanceKind kind = GetParam();
  // Matrix kinds get a 5x5 array (sparse path, ~700+ unknowns); row kinds a
  // longer sequence.
  const bool matrix = kind == dist::DistanceKind::Dtw ||
                      kind == dist::DistanceKind::Lcs ||
                      kind == dist::DistanceKind::Edit ||
                      kind == dist::DistanceKind::Hausdorff;
  const std::size_t n = matrix ? 5 : 10;

  int unknowns = 0;
  const spice::TransientResult fast = run_array_transient(
      kind, n, /*allow_refactor=*/true, /*bit_exact=*/true, &unknowns);
  const spice::TransientResult ref =
      run_array_transient(kind, n, /*allow_refactor=*/false);
  ASSERT_TRUE(fast.ok) << fast.error;
  ASSERT_TRUE(ref.ok) << ref.error;
  if (matrix) {
    // Make sure the sparse solver (not the small-system dense path) is what
    // we are exercising.
    EXPECT_GT(unknowns, 80);
  }

  EXPECT_EQ(fast.steps, ref.steps);
  EXPECT_EQ(fast.total_newton_iterations, ref.total_newton_iterations);
  ASSERT_EQ(fast.traces.size(), ref.traces.size());
  const spice::Trace& a = fast.trace("out");
  const spice::Trace& b = ref.trace("out");
  ASSERT_EQ(a.t.size(), b.t.size());
  for (std::size_t i = 0; i < a.t.size(); ++i) {
    EXPECT_EQ(a.t[i], b.t[i]) << "sample " << i;
    EXPECT_EQ(a.v[i], b.v[i]) << "sample " << i;
  }
}

// The default (KLU-semantics) mode keeps an inherited pivot while it is
// numerically sound even if a fresh scan would pick a near-tied twin row, so
// it is not bitwise reproducible against the reference — but the converged
// results must agree far below the solver's own tolerances.
TEST_P(SolverFastPath, DefaultModeMatchesReferenceWithinTolerance) {
  const dist::DistanceKind kind = GetParam();
  const bool matrix = kind == dist::DistanceKind::Dtw ||
                      kind == dist::DistanceKind::Lcs ||
                      kind == dist::DistanceKind::Edit ||
                      kind == dist::DistanceKind::Hausdorff;
  const std::size_t n = matrix ? 5 : 10;

  const spice::TransientResult fast =
      run_array_transient(kind, n, /*allow_refactor=*/true);
  const spice::TransientResult ref =
      run_array_transient(kind, n, /*allow_refactor=*/false);
  ASSERT_TRUE(fast.ok) << fast.error;
  ASSERT_TRUE(ref.ok) << ref.error;

  // Same adaptive step decisions and a final output equal to well below the
  // Newton voltage tolerance (vntol = 1e-9 V).
  ASSERT_EQ(fast.steps, ref.steps);
  const spice::Trace& a = fast.trace("out");
  const spice::Trace& b = ref.trace("out");
  ASSERT_EQ(a.v.size(), b.v.size());
  for (std::size_t i = 0; i < a.v.size(); ++i) {
    EXPECT_NEAR(a.v[i], b.v[i], 1e-9) << "sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SolverFastPath,
    ::testing::Values(dist::DistanceKind::Dtw, dist::DistanceKind::Lcs,
                      dist::DistanceKind::Edit, dist::DistanceKind::Hausdorff,
                      dist::DistanceKind::Hamming,
                      dist::DistanceKind::Manhattan));

// On a fixed netlist the full factorisation runs ~once per stamp pattern
// (dc + transient); every other linearised solve is a value-only refactor.
TEST(SolverFastPath, RefactorAbsorbsAlmostAllFactorisations) {
  const std::uint64_t factors0 = counter_value("mda.spice.sparse_lu_factors");
  const std::uint64_t refactors0 =
      counter_value("mda.spice.sparse_lu_refactors");

  const spice::TransientResult tr =
      run_array_transient(dist::DistanceKind::Dtw, 5, /*allow_refactor=*/true);
  ASSERT_TRUE(tr.ok) << tr.error;

  const std::uint64_t factors =
      counter_value("mda.spice.sparse_lu_factors") - factors0;
  const std::uint64_t refactors =
      counter_value("mda.spice.sparse_lu_refactors") - refactors0;
  // One full factor per distinct stamp pattern (dc vs transient companions),
  // plus at most a couple of pivot-degradation fallbacks.
  EXPECT_GE(factors, 1u);
  EXPECT_LE(factors, 4u);
  EXPECT_GT(refactors, 10 * factors);
  EXPECT_GE(static_cast<long>(refactors + factors),
            tr.total_newton_iterations);
}

// The elimination order must not cost refactor reuse on the kinds whose
// fill it cuts most: over one full length-4 transient of DTW and EdD,
// value-only refactors outnumber full factorisations at least tenfold.
TEST(SolverOrdering, RefactorsDominateFactorsOnDtwAndEdd) {
  for (const dist::DistanceKind kind :
       {dist::DistanceKind::Dtw, dist::DistanceKind::Edit}) {
    const std::uint64_t factors0 =
        counter_value("mda.spice.sparse_lu_factors");
    const std::uint64_t refactors0 =
        counter_value("mda.spice.sparse_lu_refactors");
    const spice::TransientResult tr =
        run_array_transient(kind, 4, /*allow_refactor=*/true);
    ASSERT_TRUE(tr.ok) << tr.error;
    const std::uint64_t factors =
        counter_value("mda.spice.sparse_lu_factors") - factors0;
    const std::uint64_t refactors =
        counter_value("mda.spice.sparse_lu_refactors") - refactors0;
    EXPECT_GE(factors, 1u) << static_cast<int>(kind);
    EXPECT_GE(refactors, 10 * factors) << static_cast<int>(kind);
  }
}

// A built (not yet solved) array netlist plus what the ordering tests need
// to see of it: its DC stamp pattern at x = 0 and its guarded branches.
struct StampedArray {
  ArrayCircuit array;
  std::vector<int> rows, cols, guarded;
  int unknowns = 0;
};

StampedArray stamp_array(dist::DistanceKind kind, std::size_t n) {
  util::Rng rng(7 + static_cast<std::uint64_t>(kind));
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.3;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  AcceleratorConfig cfg = config;
  cfg.vstep = enc.vstep_eff;
  StampedArray out{build_array(cfg, spec, n, n), {}, {}, {}, 0};
  out.array.set_step_inputs(enc.p_volts, enc.q_volts, 0.0);
  // Branch rows are assigned by the MnaSystem constructor.
  spice::MnaSystem mna(*out.array.net);
  out.unknowns = mna.num_unknowns();
  std::vector<double> vals;
  std::vector<double> rhs(static_cast<std::size_t>(out.unknowns), 0.0);
  std::vector<double> x(static_cast<std::size_t>(out.unknowns), 0.0);
  spice::Stamper stamper(out.rows, out.cols, vals, rhs);
  spice::StampContext ctx;
  ctx.x = &x;
  for (auto& dev : out.array.net->devices()) {
    dev->stamp(stamper, ctx);
    if (dev->nonlinear() && dev->num_branches() > 0) {
      for (int b = 0; b < dev->num_branches(); ++b) {
        out.guarded.push_back(dev->branch_row() + b);
      }
    }
  }
  return out;
}

// One DC linearised solve at x = 0 (the pattern stamp_array records).
std::vector<int> dc_elimination_order(spice::MnaSystem& mna) {
  std::vector<double> x(static_cast<std::size_t>(mna.num_unknowns()), 0.0);
  std::vector<double> x_new;
  spice::StampContext ctx;
  ctx.x = &x;
  EXPECT_TRUE(mna.solve_linearized(ctx, 0.0, x_new));
  return mna.elimination_order();
}

// The elimination order is a permutation of the unknowns and depends only
// on the stamp pattern: a fresh MnaSystem and one that has already factored
// a different (transient companion) pattern agree on the DC pattern, and
// both match the ordering function applied to that pattern directly.
TEST(SolverOrdering, PermutationIsPureFunctionOfPattern) {
  for (const dist::DistanceKind kind :
       {dist::DistanceKind::Dtw, dist::DistanceKind::Edit}) {
    StampedArray sa = stamp_array(kind, 4);

    spice::MnaSystem fresh(*sa.array.net);
    const std::vector<int> order = dc_elimination_order(fresh);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(sa.unknowns));
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < sa.unknowns; ++i) {
      ASSERT_EQ(sorted[static_cast<std::size_t>(i)], i);
    }

    spice::MnaSystem seasoned(*sa.array.net);
    std::vector<double> x(static_cast<std::size_t>(sa.unknowns), 0.0);
    std::vector<double> x_new;
    spice::StampContext tran;
    tran.x = &x;
    tran.dc = false;
    tran.dt = 1e-12;
    ASSERT_TRUE(seasoned.solve_linearized(tran, 0.0, x_new));
    EXPECT_EQ(dc_elimination_order(seasoned), order);

    EXPECT_EQ(spice::pivot_stable_min_degree(sa.unknowns, sa.rows, sa.cols,
                                             sa.guarded),
              order);
  }
}

// Stability constraint: every op-amp / comparator branch column is
// eliminated after each op-amp input node within two hops of it.  Input
// nodes are recomputed here from the raw pattern: the columns of a guarded
// branch row minus the branch itself and minus the rows of its column.
TEST(SolverOrdering, GuardedBranchesFollowTheirTwoHopInputs) {
  for (const dist::DistanceKind kind :
       {dist::DistanceKind::Dtw, dist::DistanceKind::Edit}) {
    StampedArray sa = stamp_array(kind, 4);
    ASSERT_FALSE(sa.guarded.empty());
    const auto un = static_cast<std::size_t>(sa.unknowns);
    std::vector<std::set<int>> nbr(un), row_cols(un), col_rows(un);
    for (std::size_t k = 0; k < sa.rows.size(); ++k) {
      const int r = sa.rows[k];
      const int c = sa.cols[k];
      if (r == c) continue;
      nbr[static_cast<std::size_t>(r)].insert(c);
      nbr[static_cast<std::size_t>(c)].insert(r);
      row_cols[static_cast<std::size_t>(r)].insert(c);
      col_rows[static_cast<std::size_t>(c)].insert(r);
    }
    std::set<int> inputs;
    for (int b : sa.guarded) {
      for (int c : row_cols[static_cast<std::size_t>(b)]) {
        if (col_rows[static_cast<std::size_t>(b)].count(c) == 0) {
          inputs.insert(c);
        }
      }
    }

    spice::MnaSystem mna(*sa.array.net);
    const std::vector<int> order = dc_elimination_order(mna);
    std::vector<int> position(un);
    for (std::size_t k = 0; k < order.size(); ++k) {
      position[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
    }
    std::size_t checked = 0;
    for (int b : sa.guarded) {
      std::set<int> near = nbr[static_cast<std::size_t>(b)];
      for (int w : nbr[static_cast<std::size_t>(b)]) {
        near.insert(nbr[static_cast<std::size_t>(w)].begin(),
                    nbr[static_cast<std::size_t>(w)].end());
      }
      near.erase(b);
      for (int v : near) {
        if (inputs.count(v) == 0) continue;
        ++checked;
        EXPECT_GT(position[static_cast<std::size_t>(b)],
                  position[static_cast<std::size_t>(v)])
            << "branch " << b << " precedes input node " << v;
      }
    }
    EXPECT_GE(checked, sa.guarded.size());  // every branch has an input
  }
}

// A nonlinear one-node device whose RHS target flips sign every stamp until
// `warmup` stamps have happened: a plain Newton loop can never converge on
// it, so the solver is forced through its homotopy fallbacks — and once the
// device settles, everything converges.  Deterministic by construction.
class NeedsWarmup : public spice::Device {
 public:
  NeedsWarmup(spice::NodeId node, int warmup) : node_(node), warmup_(warmup) {}

  [[nodiscard]] bool nonlinear() const override { return true; }

  void stamp(spice::Stamper& s, const spice::StampContext& /*ctx*/) override {
    s.add(node_, node_, 1.0);
    ++calls_;
    if (calls_ <= warmup_) {
      s.inject(node_, calls_ % 2 == 0 ? 10.0 : -10.0);
    } else {
      s.inject(node_, 1.0);
    }
  }

  void accept_step(const spice::StampContext& /*ctx*/) override { calls_ = 0; }
  void reset_state() override { calls_ = 0; }

 private:
  spice::NodeId node_;
  int warmup_;
  int calls_ = 0;
};

// Regression for the fallback accounting bug: a gmin-stepping success used
// to return only the final polish's iteration count, and a source-stepping
// success returned a default NewtonResult with iterations == 0.  The
// returned count must now equal the summed cost of every homotopy stage —
// cross-checked against the mda.spice.newton_iterations counter, which has
// always accumulated per-stage.
TEST(NewtonFallbackAccounting, GminRecoveryReportsAllStageIterations) {
  spice::Netlist net;
  const spice::NodeId node = net.node("hard");
  net.add<NeedsWarmup>(node, /*warmup=*/15);

  spice::Tolerances tol;
  tol.max_newton_iters = 12;
  spice::MnaSystem mna(net, tol);
  spice::NewtonSolver newton(mna);
  std::vector<double> x(static_cast<std::size_t>(mna.num_unknowns()), 0.0);

  const std::uint64_t iters0 = counter_value("mda.spice.newton_iterations");
  const spice::NewtonResult r = newton.solve(x, 0.0, 0.0, /*dc=*/true);
  const std::uint64_t iters =
      counter_value("mda.spice.newton_iterations") - iters0;

  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(r.used_fallback);
  // The direct attempt alone burned max_newton_iters; the homotopy stages
  // come on top, so the total must exceed any single iterate() call.
  EXPECT_GT(r.iterations, tol.max_newton_iters);
  // Exact accounting: the result carries precisely what the counter saw.
  EXPECT_EQ(static_cast<std::uint64_t>(r.iterations), iters);
  EXPECT_NEAR(x[0], 1.0, 1e-6);
}

TEST(NewtonFallbackAccounting, ExhaustedFallbacksStillReportTotalCost) {
  spice::Netlist net;
  const spice::NodeId node = net.node("hopeless");
  net.add<NeedsWarmup>(node, /*warmup=*/1000000);

  spice::Tolerances tol;
  tol.max_newton_iters = 12;
  spice::MnaSystem mna(net, tol);
  spice::NewtonSolver newton(mna);
  std::vector<double> x(static_cast<std::size_t>(mna.num_unknowns()), 0.0);

  const std::uint64_t iters0 = counter_value("mda.spice.newton_iterations");
  const spice::NewtonResult r = newton.solve(x, 0.0, 0.0, /*dc=*/true);
  const std::uint64_t iters =
      counter_value("mda.spice.newton_iterations") - iters0;

  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.used_fallback);
  // direct + first gmin stage + first source stage, all exhausted.
  EXPECT_EQ(r.iterations, 3 * tol.max_newton_iters);
  EXPECT_EQ(static_cast<std::uint64_t>(r.iterations), iters);
}

// The step controller must not treat a fallback-recovered step as "easy":
// with every solve point needing gmin stepping, dt stays at dt_init for the
// whole run instead of growing right after each near-failure.
TEST(TransientStepControl, NoGrowthOffFallbackRecoveredSteps) {
  spice::Netlist net;
  const spice::NodeId node = net.node("hard");
  net.add<NeedsWarmup>(node, /*warmup=*/8);

  spice::Tolerances tol;
  tol.max_newton_iters = 6;
  spice::TransientSimulator sim(net, tol);
  sim.probe(node, "out");
  spice::TransientParams params;
  params.t_stop = 40e-12;
  params.dt_init = 1e-12;
  params.dt_max = 10e-12;
  params.steady_tol = 0.0;  // no early exit
  const spice::TransientResult tr = sim.run(params);
  ASSERT_TRUE(tr.ok) << tr.error;

  // Every accepted step needed a fallback ...
  EXPECT_EQ(tr.fallback_steps, tr.steps);
  // ... so dt never grew: the run takes the full t_stop / dt_init steps.
  EXPECT_GE(tr.steps, 40);
}

// A stamp-free nonlinear device appended to a netlist as a restamp oracle.
// Being nonlinear, it is stamped live at every Newton iterate of the solver
// under test, and there it assembles the same iterate on two shadow
// MnaSystems over the same netlist: `replay` records at the solve point's
// first iterate and restamps after, exactly like the Newton ladder, while
// `full` stamps every device every time.  Each successful restamp must
// leave triplets and RHS byte-identical to the full assembly.  The extra
// stamp calls are harmless only if every device's stamp is a pure function
// of (context, committed state) — which the caller checks by comparing the
// run against one without the oracle.
class RestampOracle : public spice::Device {
 public:
  [[nodiscard]] bool nonlinear() const override { return true; }

  void attach(spice::MnaSystem& replay, spice::MnaSystem& full) {
    replay_ = &replay;
    full_ = &full;
  }

  void stamp(spice::Stamper& /*s*/, const spice::StampContext& ctx) override {
    if (busy_ || replay_ == nullptr) return;  // shadow assemblies stamp us too
    busy_ = true;
    if (new_point_ || !replay_->reassemble_linearized(ctx, 0.0)) {
      replay_->assemble_linearized(ctx, 0.0);
      new_point_ = false;
      ++records;
    } else {
      full_->assemble_linearized(ctx, 0.0);
      ++replays;
      if (!replay_->same_assembly(*full_)) ++mismatches;
    }
    busy_ = false;
  }

  // Committed state changes only here, so the next stamp opens a new point.
  void accept_step(const spice::StampContext& /*ctx*/) override {
    new_point_ = true;
  }
  void reset_state() override { new_point_ = true; }

  int records = 0;
  int replays = 0;
  int mismatches = 0;

 private:
  spice::MnaSystem* replay_ = nullptr;
  spice::MnaSystem* full_ = nullptr;
  bool busy_ = false;
  bool new_point_ = true;
};

struct RestampRun {
  spice::TransientResult result;
  int records = 0;
  int replays = 0;
  int mismatches = 0;
};

// Runs a length-`n` array transient for `kind`, optionally with device
// faults from `plan` and with the restamp oracle appended to the netlist.
RestampRun run_restamp_transient(dist::DistanceKind kind, std::size_t n,
                                 const fault::FaultPlan* plan,
                                 bool with_oracle) {
  util::Rng rng(53 + static_cast<std::uint64_t>(kind));
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.3;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  AcceleratorConfig cfg = config;
  cfg.vstep = enc.vstep_eff;
  ArrayCircuit array = build_array(cfg, spec, n, n);
  array.set_step_inputs(enc.p_volts, enc.q_volts, 0.0);
  if (plan != nullptr) {
    const fault::InjectionSummary injected = fault::apply_device_faults(
        array.factory->memristors(), array.factory->opamps(), *plan);
    EXPECT_GT(injected.total(), 0u);
  }
  RestampOracle* oracle =
      with_oracle ? &array.net->add<RestampOracle>() : nullptr;
  spice::TransientSimulator sim(*array.net);
  sim.probe(array.out, "out");
  spice::MnaSystem replay(*array.net);
  spice::MnaSystem full(*array.net);
  if (oracle != nullptr) oracle->attach(replay, full);
  spice::TransientParams params;
  params.t_stop = 3e-9;
  RestampRun run;
  run.result = sim.run(params);
  if (oracle != nullptr) {
    run.records = oracle->records;
    run.replays = oracle->replays;
    run.mismatches = oracle->mismatches;
  }
  return run;
}

void expect_same_transient(const spice::TransientResult& a,
                           const spice::TransientResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_newton_iterations, b.total_newton_iterations);
  ASSERT_EQ(a.final_x.size(), b.final_x.size());
  EXPECT_EQ(std::memcmp(a.final_x.data(), b.final_x.data(),
                        a.final_x.size() * sizeof(double)),
            0);
}

class PartialRestamp : public ::testing::TestWithParam<dist::DistanceKind> {};

TEST_P(PartialRestamp, ReplayMatchesFullAssemblyAtEveryIterate) {
  const dist::DistanceKind kind = GetParam();
  const RestampRun checked = run_restamp_transient(kind, 3, nullptr, true);
  ASSERT_TRUE(checked.result.ok) << checked.result.error;
  EXPECT_EQ(checked.mismatches, 0);
  EXPECT_GT(checked.records, 0);
  EXPECT_GT(checked.replays, checked.records);  // most iterates restamp
  // The oracle's extra stamp calls must not have perturbed the run.
  expect_same_transient(checked.result,
                        run_restamp_transient(kind, 3, nullptr, false).result);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PartialRestamp,
    ::testing::Values(dist::DistanceKind::Dtw, dist::DistanceKind::Lcs,
                      dist::DistanceKind::Edit, dist::DistanceKind::Hausdorff,
                      dist::DistanceKind::Hamming,
                      dist::DistanceKind::Manhattan));

TEST(PartialRestampFaults, ReplayMatchesFullAssemblyUnderFaultPlan) {
  fault::FaultConfig fc;
  fc.seed = 41;
  fc.stuck_rate = 0.1;
  fc.drift_rate = 0.1;
  fc.opamp_rate = 0.2;
  const fault::FaultPlan plan(fc);
  for (const dist::DistanceKind kind :
       {dist::DistanceKind::Dtw, dist::DistanceKind::Manhattan}) {
    const RestampRun checked = run_restamp_transient(kind, 3, &plan, true);
    EXPECT_EQ(checked.mismatches, 0) << static_cast<int>(kind);
    EXPECT_GT(checked.replays, 0) << static_cast<int>(kind);
    expect_same_transient(checked.result,
                          run_restamp_transient(kind, 3, &plan, false).result);
  }
}

}  // namespace
