// Fault subsystem (DESIGN.md §9): pure-hash determinism of FaultPlan draws,
// the detection primitives, device-level injection, recovery and graceful
// backend degradation through Accelerator::try_compute, and bit-identity of
// injection campaigns across thread counts — the acceptance contract of the
// `mda faults` subcommand.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blocks/factory.hpp"
#include "core/accelerator.hpp"
#include "core/batch_engine.hpp"
#include "devices/memristor.hpp"
#include "distance/registry.hpp"
#include "fault/campaign.hpp"
#include "fault/detection.hpp"
#include "fault/health.hpp"
#include "fault/injection.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "spice/primitives.hpp"

namespace {

using namespace mda;
using namespace mda::core;

/// Counter total from a metrics snapshot (0 when never registered).
std::uint64_t counter_value(const std::vector<obs::MetricValue>& snapshot,
                            const std::string& name) {
  for (const auto& m : snapshot) {
    if (m.name == name) return m.count;
  }
  return 0;
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, DefaultConfigInjectsNothing) {
  const fault::FaultConfig cfg;
  EXPECT_FALSE(cfg.any());
  const fault::FaultPlan plan(cfg);
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_FALSE(plan.memristor_fault(i).has_value());
    EXPECT_FALSE(plan.dac_fault(i % 2, i).has_value());
    EXPECT_FALSE(plan.adc_fault(i).has_value());
    EXPECT_FALSE(plan.opamp_fault(i).has_value());
    EXPECT_FALSE(plan.cell_fault(i, i + 1).has_value());
  }
  EXPECT_FALSE(plan.fullspice_nonconvergence(12345));
}

TEST(FaultPlan, AnyReflectsEveryFaultClass) {
  const auto one = [](auto set) {
    fault::FaultConfig cfg;
    set(cfg);
    return cfg.any();
  };
  EXPECT_TRUE(one([](auto& c) { c.stuck_rate = 0.1; }));
  EXPECT_TRUE(one([](auto& c) { c.drift_rate = 0.1; }));
  EXPECT_TRUE(one([](auto& c) { c.dac_rate = 0.1; }));
  EXPECT_TRUE(one([](auto& c) { c.adc_rate = 0.1; }));
  EXPECT_TRUE(one([](auto& c) { c.opamp_rate = 0.1; }));
  EXPECT_TRUE(one([](auto& c) { c.cell_rate = 0.1; }));
  EXPECT_TRUE(one([](auto& c) { c.nonconvergence_rate = 0.1; }));
  EXPECT_TRUE(one([](auto& c) { c.force_nonconvergence = true; }));
}

TEST(FaultPlan, DrawsArePureFunctionsOfSeedAndIndex) {
  fault::FaultConfig cfg;
  cfg.seed = 77;
  cfg.stuck_rate = 0.05;
  cfg.drift_rate = 0.20;
  cfg.dac_rate = 0.10;
  cfg.adc_rate = 0.10;
  cfg.opamp_rate = 0.10;
  cfg.cell_rate = 0.10;
  cfg.nonconvergence_rate = 0.10;
  const fault::FaultPlan a(cfg);
  const fault::FaultPlan b(cfg);  // independent instance, same config
  for (std::size_t i = 0; i < 400; ++i) {
    const auto ma = a.memristor_fault(i);
    const auto mb = b.memristor_fault(i);
    ASSERT_EQ(ma.has_value(), mb.has_value()) << i;
    if (ma) {
      EXPECT_EQ(ma->kind, mb->kind);
      EXPECT_EQ(ma->drift_factor, mb->drift_factor);  // bit-identical
    }
    const auto ca = a.cell_fault(i, 3 * i + 1);
    const auto cb = b.cell_fault(i, 3 * i + 1);
    ASSERT_EQ(ca.has_value(), cb.has_value()) << i;
    if (ca) {
      EXPECT_EQ(ca->kind, cb->kind);
      EXPECT_EQ(ca->drift_v, cb->drift_v);
    }
    EXPECT_EQ(a.fullspice_nonconvergence(i), b.fullspice_nonconvergence(i));
  }
  // A different seed decorrelates the draw pattern.
  fault::FaultConfig other = cfg;
  other.seed = 78;
  const fault::FaultPlan c(other);
  int differing = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    differing +=
        a.memristor_fault(i).has_value() != c.memristor_fault(i).has_value();
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, RateEndpointsAreExact) {
  fault::FaultConfig all;
  all.stuck_rate = 1.0;
  const fault::FaultPlan saturated(all);
  for (std::size_t i = 0; i < 100; ++i) {
    const auto f = saturated.memristor_fault(i);
    ASSERT_TRUE(f.has_value());
    EXPECT_NE(f->kind, fault::MemristorFaultKind::Drift);
  }
  fault::FaultConfig drifts;
  drifts.drift_rate = 1.0;
  const fault::FaultPlan drifting(drifts);
  for (std::size_t i = 0; i < 100; ++i) {
    const auto f = drifting.memristor_fault(i);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->kind, fault::MemristorFaultKind::Drift);
    EXPECT_NE(f->drift_factor, 1.0);
    EXPECT_GT(f->drift_factor, 0.0);
  }
}

TEST(FaultPlan, EvalKeyDependsOnInputs) {
  const std::vector<double> p = {1.0, 2.0, 3.0};
  const std::vector<double> q = {0.5, 1.5, 2.5};
  const std::uint64_t k0 =
      fault::FaultPlan::eval_key(p.data(), p.size(), q.data(), q.size());
  EXPECT_EQ(k0,
            fault::FaultPlan::eval_key(p.data(), p.size(), q.data(), q.size()));
  std::vector<double> p2 = p;
  p2[1] += 1e-9;
  EXPECT_NE(k0, fault::FaultPlan::eval_key(p2.data(), p2.size(), q.data(),
                                           q.size()));
  // Swapping the operands changes the key too.
  EXPECT_NE(k0,
            fault::FaultPlan::eval_key(q.data(), q.size(), p.data(), p.size()));
}

// ---------------------------------------------------------------- detection

TEST(FaultDetection, EnvelopeCatchesRailsAndNonFinite) {
  const fault::Envelope env = fault::envelope_for(0.45, 0.10);
  EXPECT_TRUE(env.contains(0.0));
  EXPECT_TRUE(env.contains(0.45));
  EXPECT_TRUE(env.contains(-0.02));  // inside the widened margin
  EXPECT_FALSE(env.contains(0.60));
  EXPECT_FALSE(env.contains(-0.10));

  EXPECT_FALSE(fault::check_envelope(0.2, env).has_value());
  EXPECT_TRUE(fault::check_envelope(10.0, env).has_value());  // rail fault
  EXPECT_TRUE(fault::check_envelope(std::nan(""), env).has_value());
  EXPECT_TRUE(
      fault::check_envelope(std::numeric_limits<double>::infinity(), env)
          .has_value());
}

TEST(FaultDetection, ResidualAndWatchdog) {
  EXPECT_FALSE(fault::residual_exceeds(0.100, 0.101, 0.05));
  EXPECT_TRUE(fault::residual_exceeds(0.100, 0.200, 0.05));
  EXPECT_TRUE(fault::residual_exceeds(std::nan(""), 0.1, 0.05));
  EXPECT_FALSE(fault::watchdog_tripped(1000000, 0));  // 0 disables
  EXPECT_FALSE(fault::watchdog_tripped(10, 50));
  EXPECT_TRUE(fault::watchdog_tripped(51, 50));
}

TEST(FaultDetection, IdealCellRecurrences) {
  EXPECT_DOUBLE_EQ(fault::ideal_dtw_cell(0.02, 0.10, 0.05, 0.07), 0.07);
  EXPECT_DOUBLE_EQ(fault::ideal_lcs_cell(true, 0.1, 0.2, 0.05, 1.0, 0.01),
                   0.06);
  EXPECT_DOUBLE_EQ(fault::ideal_lcs_cell(false, 0.1, 0.2, 0.05, 1.0, 0.01),
                   0.2);
  EXPECT_DOUBLE_EQ(fault::ideal_edit_cell(true, 0.1, 0.2, 0.05, 1.0, 0.01),
                   0.05);
  EXPECT_DOUBLE_EQ(fault::ideal_edit_cell(false, 0.3, 0.2, 0.05, 1.0, 0.01),
                   0.06);
}

// ---------------------------------------------------------------- injection

TEST(FaultInjection, StuckAndDriftedDevicesMatchThePlan) {
  spice::Netlist net;
  blocks::BlockFactory f(net, blocks::AnalogEnv{});
  std::vector<dev::Memristor*> mems;
  for (int i = 0; i < 64; ++i) {
    mems.push_back(&f.mem(net.node("n" + std::to_string(i)), spice::kGround,
                          50e3, "m"));
  }
  fault::FaultConfig cfg;
  cfg.seed = 5;
  cfg.stuck_rate = 0.25;
  cfg.drift_rate = 0.25;
  const fault::FaultPlan plan(cfg);
  const fault::InjectionSummary summary =
      fault::apply_device_faults(mems, {}, plan);
  EXPECT_EQ(summary.total(), summary.stuck + summary.drifted);
  EXPECT_GT(summary.stuck, 0u);
  EXPECT_GT(summary.drifted, 0u);
  std::size_t stuck_seen = 0;
  for (std::size_t i = 0; i < mems.size(); ++i) {
    const auto fault_i = plan.memristor_fault(i);
    if (!fault_i) {
      EXPECT_FALSE(mems[i]->stuck());
      EXPECT_EQ(mems[i]->resistance(), 50e3);
      continue;
    }
    switch (fault_i->kind) {
      case fault::MemristorFaultKind::StuckAtRon:
        EXPECT_TRUE(mems[i]->stuck());
        EXPECT_EQ(mems[i]->resistance(), mems[i]->params().r_on);
        ++stuck_seen;
        break;
      case fault::MemristorFaultKind::StuckAtRoff:
        EXPECT_TRUE(mems[i]->stuck());
        EXPECT_EQ(mems[i]->resistance(), mems[i]->params().r_off);
        ++stuck_seen;
        break;
      case fault::MemristorFaultKind::Drift:
        EXPECT_FALSE(mems[i]->stuck());
        EXPECT_NE(mems[i]->resistance(), 50e3);
        break;
    }
  }
  EXPECT_EQ(stuck_seen, summary.stuck);
}

// ----------------------------------------------------- recovery/degradation

// The ISSUE acceptance criterion: with a fault plan that forces FullSpice
// non-convergence, compute() must still return the correct distance via the
// degradation chain, the outcome must record the fallback path, and the
// mda.fault.* metrics must count the event.
TEST(FaultRecovery, ForcedFullSpiceNonconvergenceDegradesToWavefront) {
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Lcs;
  spec.threshold = 0.4;
  const std::vector<double> p = {1.0, 2.0, 3.0, 1.5};
  const std::vector<double> q = {1.0, 2.1, 0.2, 1.5};

  fault::FaultConfig fc;
  fc.force_nonconvergence = true;
  AcceleratorConfig cfg;
  cfg.backend = Backend::FullSpice;
  cfg.faults = std::make_shared<const fault::FaultPlan>(fc);
  Accelerator acc(cfg);
  acc.configure(spec);

  const auto before = obs::collect();
  const ComputeOutcome outcome = acc.try_compute(p, q);
  const auto after = obs::collect();

  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  const ComputeResult& r = outcome.value();
  EXPECT_EQ(r.backend_used, Backend::Wavefront);
  EXPECT_EQ(r.fallbacks, 1);
  EXPECT_GT(r.attempts, 1);  // FullSpice retried before degrading
  EXPECT_TRUE(r.fault_detected);

  // The degraded answer is the same one a healthy wavefront accelerator
  // produces (the only faults in the plan are FullSpice-specific).
  AcceleratorConfig healthy;
  healthy.backend = Backend::Wavefront;
  Accelerator reference(healthy);
  reference.configure(spec);
  EXPECT_EQ(r.value, reference.try_compute(p, q).unwrap().value);
  EXPECT_EQ(r.reference, reference.try_compute(p, q).unwrap().reference);

  EXPECT_GT(counter_value(after, "mda.fault.injected_nonconvergence"),
            counter_value(before, "mda.fault.injected_nonconvergence"));
  EXPECT_GT(counter_value(after, "mda.fault.fallbacks"),
            counter_value(before, "mda.fault.fallbacks"));
  EXPECT_GT(counter_value(after, "mda.fault.detected"),
            counter_value(before, "mda.fault.detected"));
  EXPECT_GT(counter_value(after, "mda.fault.recovered"),
            counter_value(before, "mda.fault.recovered"));
}

TEST(FaultRecovery, DegradationDisabledSurfacesBackendFailure) {
  fault::FaultConfig fc;
  fc.force_nonconvergence = true;
  AcceleratorConfig cfg;
  cfg.backend = Backend::FullSpice;
  cfg.faults = std::make_shared<const fault::FaultPlan>(fc);
  cfg.fault_handling.degrade = false;
  cfg.fault_handling.max_retries = 1;
  Accelerator acc(cfg);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec);
  const std::vector<double> p = {1.0, 2.0, 0.5};
  const std::vector<double> q = {0.5, 1.0, 1.5};
  const ComputeOutcome outcome = acc.try_compute(p, q);
  ASSERT_FALSE(outcome.ok());
  const ComputeError& e = outcome.error();
  EXPECT_EQ(e.code, ComputeErrorCode::BackendFailure);
  EXPECT_EQ(e.backend, Backend::FullSpice);
  EXPECT_EQ(e.attempts, 2);  // initial + one retry, no degradation
  EXPECT_FALSE(e.message.empty());
}

// An op-amp rail fault pins the FullSpice output far outside [0, v_max]:
// the envelope detector must trip on every FullSpice attempt, count each
// trip in the metrics and on the health sink, and hand the query to the
// Wavefront backend (which models no op-amp faults) for a clean answer.
// Seed 11 draws a plan whose MD array converges onto a rail rather than
// failing to converge.
TEST(FaultRecovery, EnvelopeTripDegrades) {
  fault::FaultConfig fc;
  fc.seed = 11;
  fc.opamp_rate = 0.3;
  AcceleratorConfig cfg;
  cfg.backend = Backend::FullSpice;
  cfg.faults = std::make_shared<const fault::FaultPlan>(fc);
  const auto board = std::make_shared<fault::HealthScoreboard>();
  cfg.health = board;
  Accelerator acc(cfg);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec);
  const std::vector<double> p = {1.0, 2.0, 0.5};
  const std::vector<double> q = {0.5, 1.0, 1.5};

  const auto before = obs::collect();
  const ComputeOutcome outcome = acc.try_compute(p, q);
  const auto after = obs::collect();

  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  const ComputeResult& r = outcome.value();
  EXPECT_EQ(r.backend_used, Backend::Wavefront);
  EXPECT_EQ(r.fallbacks, 1);
  EXPECT_TRUE(r.fault_detected);
  EXPECT_GT(counter_value(after, "mda.fault.envelope_trips"),
            counter_value(before, "mda.fault.envelope_trips"));
  EXPECT_GT(counter_value(after, "mda.fault.fallbacks"),
            counter_value(before, "mda.fault.fallbacks"));
  EXPECT_GT(board->snapshot().envelope_trips, 0u);

  AcceleratorConfig healthy;
  healthy.backend = Backend::Wavefront;
  Accelerator reference(healthy);
  reference.configure(spec);
  EXPECT_EQ(r.value, reference.try_compute(p, q).unwrap().value);
}

// A one-iteration Newton budget trips the FullSpice watchdog on every
// transient.  With degradation the query lands on Wavefront (the row
// structure's DC solve has no watchdog); without it the failure surfaces
// and names the watchdog.
TEST(FaultRecovery, NewtonWatchdogTripsAndDegrades) {
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  const std::vector<double> p = {1.0, 2.0, 0.5};
  const std::vector<double> q = {0.5, 1.0, 1.5};
  for (const bool degrade : {true, false}) {
    SCOPED_TRACE(degrade ? "degrade" : "no degrade");
    AcceleratorConfig cfg;
    cfg.backend = Backend::FullSpice;
    // Over the row structure's one DC solve, under the transient's
    // hundreds of iterations: only the FullSpice attempt trips.
    cfg.fault_handling.newton_budget = 50;
    cfg.fault_handling.degrade = degrade;
    const auto board = std::make_shared<fault::HealthScoreboard>();
    cfg.health = board;
    Accelerator acc(cfg);
    acc.configure(spec);

    const auto before = obs::collect();
    const ComputeOutcome outcome = acc.try_compute(p, q);
    const auto after = obs::collect();

    EXPECT_GT(counter_value(after, "mda.fault.watchdog_trips"),
              counter_value(before, "mda.fault.watchdog_trips"));
    EXPECT_GT(board->snapshot().watchdog_trips, 0u);
    if (degrade) {
      ASSERT_TRUE(outcome.ok()) << outcome.error().message;
      EXPECT_EQ(outcome.value().backend_used, Backend::Wavefront);
      EXPECT_EQ(outcome.value().fallbacks, 1);
      EXPECT_TRUE(outcome.value().fault_detected);
    } else {
      ASSERT_FALSE(outcome.ok());
      EXPECT_EQ(outcome.error().code, ComputeErrorCode::BackendFailure);
      EXPECT_EQ(outcome.error().backend, Backend::FullSpice);
      EXPECT_NE(outcome.error().message.find("watchdog"), std::string::npos)
          << outcome.error().message;
    }
  }
}

// The watchdog covers every Wavefront structure: the matrix wavefront
// (DTW/LCS/EdD), the HauD columns and the row structure (HamD/MD), whose DC
// solve reports its Newton iterations.
TEST(FaultRecovery, WavefrontWatchdogTripsForEveryKind) {
  const std::vector<double> p = {1.0, 2.0, 0.5};
  const std::vector<double> q = {0.5, 1.0, 1.5};
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    SCOPED_TRACE(dist::kind_name(kind));
    DistanceSpec spec;
    spec.kind = kind;
    spec.threshold = 0.3;

    AcceleratorConfig open;
    open.backend = Backend::Wavefront;
    Accelerator unbudgeted(open);
    unbudgeted.configure(spec);
    const ComputeOutcome free_run = unbudgeted.try_compute(p, q);
    ASSERT_TRUE(free_run.ok()) << free_run.error().message;
    EXPECT_GT(free_run.value().newton_iterations, 0);

    AcceleratorConfig cfg = open;
    cfg.fault_handling.newton_budget = 1;
    cfg.fault_handling.degrade = false;
    const auto board = std::make_shared<fault::HealthScoreboard>();
    cfg.health = board;
    Accelerator acc(cfg);
    acc.configure(spec);
    const auto before = obs::collect();
    const ComputeOutcome outcome = acc.try_compute(p, q);
    const auto after = obs::collect();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ComputeErrorCode::BackendFailure);
    EXPECT_EQ(outcome.error().backend, Backend::Wavefront);
    EXPECT_NE(outcome.error().message.find("watchdog"), std::string::npos)
        << outcome.error().message;
    EXPECT_GT(counter_value(after, "mda.fault.watchdog_trips"),
              counter_value(before, "mda.fault.watchdog_trips"));
    EXPECT_GT(board->snapshot().watchdog_trips, 0u);
  }
}

TEST(FaultRecovery, WavefrontCellFaultsAreQuarantined) {
  // Saturate a small DTW array with cell faults: the residual detector must
  // quarantine them and the query must still produce a sane value.
  fault::FaultConfig fc;
  fc.seed = 21;
  fc.cell_rate = 0.30;
  AcceleratorConfig cfg;
  cfg.backend = Backend::Wavefront;
  cfg.faults = std::make_shared<const fault::FaultPlan>(fc);
  Accelerator acc(cfg);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  acc.configure(spec);
  std::vector<double> p(6), q(6);
  util::Rng rng(33);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = rng.uniform(0.0, 3.0);
    q[i] = rng.uniform(0.0, 3.0);
  }
  const ComputeOutcome outcome = acc.try_compute(p, q);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  const ComputeResult& r = outcome.value();
  EXPECT_GT(r.quarantined_cells, 0u);
  EXPECT_TRUE(r.fault_detected);
  // Quarantine replaces broken cells by the ideal prediction, so accuracy
  // degrades gracefully instead of collapsing.
  EXPECT_LT(r.relative_error, 0.25);
}

TEST(FaultRecovery, HealthyAcceleratorReportsCleanProvenance) {
  Accelerator acc;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  acc.configure(spec);
  const std::vector<double> p = {1.0, 2.0, 0.5};
  const std::vector<double> q = {0.5, 1.0, 1.5};
  const ComputeOutcome outcome = acc.try_compute(p, q);
  ASSERT_TRUE(outcome.ok());
  const ComputeResult& r = outcome.value();
  EXPECT_EQ(r.backend_used, Backend::Wavefront);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.fallbacks, 0);
  EXPECT_EQ(r.quarantined_cells, 0u);
  EXPECT_FALSE(r.fault_detected);
  EXPECT_GT(r.newton_iterations, 0);  // SPICE work is accounted for
}

TEST(FaultRecovery, RepeatedTryComputeIsBitIdentical) {
  // try_compute keeps no mutable state on its path: the recovery chain,
  // each attempt's re-tune and the instance cache are functions of the
  // request, the config and the plan.  So re-running a query returns the
  // same outcome bit for bit, failed or not — which is why no layer above
  // the chain re-runs a failed query.
  struct Plan {
    const char* name;
    fault::FaultConfig fc;
  };
  std::vector<Plan> plans(3);
  plans[0].name = "nonconvergence";
  plans[0].fc.nonconvergence_rate = 0.7;
  plans[1].name = "stuck-at";
  plans[1].fc.stuck_rate = 0.2;
  plans[1].fc.cell_rate = 0.3;  // Stuck-low, stuck-high and drift cells.
  plans[2].name = "drift";
  plans[2].fc.drift_rate = 0.5;
  plans[2].fc.cell_rate = 0.4;
  plans[2].fc.cell_drift_only = true;
  constexpr dist::DistanceKind kKinds[] = {dist::DistanceKind::Manhattan,
                                           dist::DistanceKind::Dtw,
                                           dist::DistanceKind::Hamming};
  constexpr int kReruns = 2;

  util::Rng rng(77);
  std::vector<std::pair<std::vector<double>, std::vector<double>>> inputs;
  for (int k = 0; k < 2; ++k) {
    // Length 2 keeps the cache-bypassing FullSpice plans affordable.
    std::vector<double> p(2), q(2);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = rng.uniform(0.0, 3.0);
      q[i] = rng.uniform(0.0, 3.0);
    }
    inputs.emplace_back(std::move(p), std::move(q));
  }

  std::size_t failed = 0, succeeded = 0;
  for (const Backend backend : {Backend::FullSpice, Backend::Wavefront}) {
    for (const Plan& plan : plans) {
      for (const bool degrade : {false, true}) {
        AcceleratorConfig cfg;
        cfg.backend = backend;
        cfg.faults = std::make_shared<const fault::FaultPlan>(plan.fc);
        cfg.fault_handling.degrade = degrade;
        for (const dist::DistanceKind kind : kKinds) {
          Accelerator acc(cfg);
          DistanceSpec spec;
          spec.kind = kind;
          spec.threshold = 0.4;
          acc.configure(spec);
          for (const auto& [p, q] : inputs) {
            const ComputeOutcome first = acc.try_compute(p, q);
            if (first.ok()) {
              ++succeeded;
            } else {
              ++failed;
            }
            SCOPED_TRACE(std::string(plan.name) + " " +
                         dist::kind_name(kind) + " backend " +
                         std::to_string(static_cast<int>(backend)) +
                         " degrade " + std::to_string(degrade));
            for (int rerun = 0; rerun < kReruns; ++rerun) {
              const ComputeOutcome again = acc.try_compute(p, q);
              ASSERT_EQ(again.ok(), first.ok()) << "rerun " << rerun;
              if (first.ok()) {
                EXPECT_TRUE(bitwise_equal(again.value(), first.value()));
                continue;
              }
              const ComputeError& a = first.error();
              const ComputeError& b = again.error();
              EXPECT_EQ(b.code, a.code);
              EXPECT_EQ(b.backend, a.backend);
              EXPECT_EQ(b.attempts, a.attempts);
              EXPECT_EQ(b.newton_iterations, a.newton_iterations);
              EXPECT_EQ(b.message, a.message);
            }
          }
        }
      }
    }
  }
  // Both paths were exercised: some chains failed end to end.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(succeeded, 0u);
}

// ---------------------------------------------------------------- campaigns

fault::CampaignConfig mixed_fault_campaign(std::size_t threads) {
  fault::CampaignConfig c;
  c.spec.kind = dist::DistanceKind::Dtw;
  c.backend = Backend::Wavefront;
  c.queries = 10;
  c.length = 6;
  c.seed = 7;
  c.threads = threads;
  c.faults.stuck_rate = 0.01;
  c.faults.drift_rate = 0.05;
  c.faults.cell_rate = 0.05;
  c.faults.dac_rate = 0.02;
  c.faults.adc_rate = 0.02;
  c.faults.opamp_rate = 0.02;
  return c;
}

// The other ISSUE acceptance criterion: a campaign with the same seed is
// bit-identical at any thread count.
TEST(FaultCampaign, BitIdenticalAcrossThreadCounts) {
  const fault::CampaignReport serial = run_campaign(mixed_fault_campaign(1));
  ASSERT_EQ(serial.outcomes.size(), 10u);
  for (const std::size_t threads : {2u, 8u}) {
    const fault::CampaignReport parallel =
        run_campaign(mixed_fault_campaign(threads));
    ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
    EXPECT_EQ(parallel.survived, serial.survived);
    EXPECT_EQ(parallel.failed, serial.failed);
    EXPECT_EQ(parallel.detected, serial.detected);
    EXPECT_EQ(parallel.recovered, serial.recovered);
    EXPECT_EQ(parallel.quarantined_cells, serial.quarantined_cells);
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      const fault::QueryOutcome& a = serial.outcomes[i];
      const fault::QueryOutcome& b = parallel.outcomes[i];
      EXPECT_EQ(a.ok, b.ok) << "query " << i << " at " << threads;
      // Bit-identical, not merely close.
      EXPECT_EQ(a.value, b.value) << "query " << i << " at " << threads;
      EXPECT_EQ(a.rel_error, b.rel_error);
      EXPECT_EQ(a.backend_used, b.backend_used);
      EXPECT_EQ(a.attempts, b.attempts);
      EXPECT_EQ(a.fallbacks, b.fallbacks);
      EXPECT_EQ(a.quarantined_cells, b.quarantined_cells);
      EXPECT_EQ(a.fault_detected, b.fault_detected);
      EXPECT_EQ(a.error, b.error);
    }
  }
}

TEST(FaultCampaign, RerunWithSameSeedReproduces) {
  const fault::CampaignReport a = run_campaign(mixed_fault_campaign(2));
  const fault::CampaignReport b = run_campaign(mixed_fault_campaign(2));
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].value, b.outcomes[i].value);
    EXPECT_EQ(a.outcomes[i].attempts, b.outcomes[i].attempts);
  }
  EXPECT_EQ(a.mean_rel_error, b.mean_rel_error);
  EXPECT_EQ(a.max_rel_error, b.max_rel_error);
}

TEST(FaultCampaign, CellFaultsDetectedAndSurvived) {
  fault::CampaignConfig c;
  c.spec.kind = dist::DistanceKind::Dtw;
  c.backend = Backend::Wavefront;
  c.queries = 8;
  c.length = 8;
  c.seed = 11;
  c.faults.cell_rate = 0.10;
  const fault::CampaignReport report = run_campaign(c);
  EXPECT_EQ(report.survived, c.queries);  // quarantine keeps queries alive
  EXPECT_GT(report.detected, 0u);
  EXPECT_GT(report.quarantined_cells, 0u);
  EXPECT_LT(report.max_rel_error, 0.30);
  const std::string text = report.summary();
  EXPECT_NE(text.find("survived"), std::string::npos);
  EXPECT_NE(text.find("quarantined"), std::string::npos);
}

TEST(FaultCampaign, FaultFreeCampaignIsQuiet) {
  fault::CampaignConfig c;
  c.spec.kind = dist::DistanceKind::Manhattan;
  c.backend = Backend::Wavefront;
  c.queries = 4;
  c.length = 5;
  const fault::CampaignReport report = run_campaign(c);
  EXPECT_EQ(report.survived, c.queries);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.detected, 0u);
  EXPECT_EQ(report.recovered, 0u);
  EXPECT_EQ(report.quarantined_cells, 0u);
}

}  // namespace
