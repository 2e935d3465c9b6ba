// Self-healing serving tests (DESIGN.md §14): health-scoreboard units
// (EWMAs, quadrature expected-error, hysteresis, reset/generation), scrub
// scheduler units (probe hook, threshold trigger, idle skip, background
// thread), the ArrayCache generation barrier (a scrub can never re-pool a
// half-tuned instance), accelerator retune healing drifted cell plans,
// scrub-quiescent bit-identity across thread counts, and the serving
// layer's replica lifecycle — health frame loopback, kill/failover/restart,
// scrub-then-serve identity, hedged requests, client auto-reconnect and
// retry-after handling.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "core/array_cache.hpp"
#include "core/backend.hpp"
#include "core/query.hpp"
#include "core/scrub.hpp"
#include "distance/registry.hpp"
#include "fault/health.hpp"
#include "fault/plan.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace mda;
using core::QueryRequest;
using core::QueryResponse;
using core::QueryStatus;

// ------------------------------------------------------ scoreboard units --

TEST(HealthScoreboard, QueryEwmaFeedsExpectedError) {
  fault::HealthScoreboard board;
  EXPECT_DOUBLE_EQ(board.expected_error(), 0.0);
  EXPECT_FALSE(board.unhealthy());

  board.record_query(0.10, false, 0, 0);
  const fault::HealthSnapshot s1 = board.snapshot();
  // First sample: EWMA = alpha * err.
  EXPECT_NEAR(s1.query_ewma, 0.20 * 0.10, 1e-12);
  EXPECT_NEAR(s1.expected_error, s1.query_ewma, 1e-12);
  EXPECT_EQ(s1.queries, 1u);

  // Sustained large errors push the estimate over the unhealthy threshold.
  for (int i = 0; i < 50; ++i) board.record_query(0.5, true, 1, 10);
  EXPECT_TRUE(board.unhealthy());
  const fault::HealthSnapshot s2 = board.snapshot();
  EXPECT_EQ(s2.queries, 51u);
  EXPECT_EQ(s2.faults_detected, 50u);
}

TEST(HealthScoreboard, QuadratureCombinesIndependentTerms) {
  fault::HealthConfig cfg;
  cfg.query_alpha = 1.0;  // EWMA == last sample, for exact arithmetic.
  cfg.probe_alpha = 1.0;
  fault::HealthScoreboard board(cfg);
  board.record_query(0.03, false, 0, 0);
  board.record_probe(0.04, true);
  // MemSE-style RSS: sqrt(0.03^2 + 0.04^2) = 0.05 exactly.
  EXPECT_NEAR(board.expected_error(), 0.05, 1e-12);
}

TEST(HealthScoreboard, TrackedCellsPenalizeEvenWhileQuarantined) {
  fault::HealthScoreboard board;
  for (std::size_t c = 0; c < 9; ++c) board.record_quarantine(c, c, 0.2);
  const fault::HealthSnapshot s = board.snapshot();
  EXPECT_EQ(s.tracked_cells, 9u);
  EXPECT_EQ(s.quarantines, 9u);
  // 9 tracked cells alone contribute >= 9 * tracked_cell_penalty.
  EXPECT_GE(board.expected_error(), 9 * 0.01 - 1e-12);
  EXPECT_TRUE(board.unhealthy());
}

TEST(HealthScoreboard, ResetWipesScoresKeepsCountersBumpsGeneration) {
  fault::HealthScoreboard board;
  for (int i = 0; i < 20; ++i) board.record_query(0.9, true, 0, 0);
  board.record_quarantine(1, 2, 0.3);
  board.record_watchdog_trip();
  ASSERT_TRUE(board.unhealthy());
  ASSERT_EQ(board.snapshot().generation, 0u);

  board.reset();
  EXPECT_DOUBLE_EQ(board.expected_error(), 0.0);
  EXPECT_TRUE(board.healthy());
  const fault::HealthSnapshot s = board.snapshot();
  EXPECT_EQ(s.generation, 1u);
  EXPECT_EQ(s.tracked_cells, 0u);
  // History survives the wipe — the scrub count is diagnosable.
  EXPECT_EQ(s.queries, 20u);
  EXPECT_EQ(s.quarantines, 1u);
  EXPECT_EQ(s.watchdog_trips, 1u);
}

// -------------------------------------------------- scrub scheduler units --

TEST(ScrubScheduler, ProbeRunsEveryScanScrubOnlyAboveThreshold) {
  core::ScrubScheduler sched;
  int probes = 0, scrubs = 0;
  double score = 0.01;
  core::ScrubTarget t;
  t.name = "array0";
  t.probe = [&] { ++probes; };
  t.score = [&] { return score; };
  t.scrub = [&] {
    ++scrubs;
    score = 0.001;  // A scrub heals this target.
    return true;
  };
  sched.add_target(t);

  EXPECT_EQ(sched.force_scan(), 0u);  // Healthy: probed, not scrubbed.
  EXPECT_EQ(probes, 1);
  EXPECT_EQ(scrubs, 0);

  score = 0.5;  // Degrade past unhealthy_threshold (0.08).
  EXPECT_EQ(sched.force_scan(), 1u);
  EXPECT_EQ(probes, 2);
  EXPECT_EQ(scrubs, 1);
  EXPECT_LT(score, 0.02);  // Healed below healthy_threshold.

  const core::ScrubStats stats = sched.stats();
  EXPECT_EQ(stats.scans, 2u);
  EXPECT_EQ(stats.scrubs, 1u);
  EXPECT_EQ(stats.heals, 1u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ScrubScheduler, BusyTargetIsSkippedFailedScrubCounted) {
  core::ScrubScheduler sched;
  bool idle = false;
  int scrubs = 0;
  core::ScrubTarget t;
  t.score = [] { return 1.0; };
  t.idle = [&] { return idle; };
  t.scrub = [&] {
    ++scrubs;
    return false;  // Scrub attempt fails (target stays degraded).
  };
  sched.add_target(t);

  EXPECT_EQ(sched.force_scan(), 0u);  // Busy: checked out, skipped.
  EXPECT_EQ(scrubs, 0);
  EXPECT_EQ(sched.stats().skipped_busy, 1u);

  idle = true;
  EXPECT_EQ(sched.force_scan(), 1u);
  EXPECT_EQ(scrubs, 1);
  EXPECT_EQ(sched.stats().failures, 1u);
}

TEST(ScrubScheduler, BackgroundThreadScansUntilStopped) {
  core::ScrubScheduler sched(core::ScrubOptions{/*scan_interval_s=*/0.002});
  std::atomic<int> probes{0};
  core::ScrubTarget t;
  t.probe = [&] { ++probes; };
  sched.add_target(t);

  EXPECT_FALSE(sched.running());
  sched.start();
  EXPECT_TRUE(sched.running());
  while (probes.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.stop();
  EXPECT_FALSE(sched.running());
  const int after = probes.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(probes.load(), after);  // No scans after stop().
}

// ------------------------------------------- cache generation barrier -----

struct CountedInstance : core::ArrayCache::Instance {
  static std::atomic<int> live;
  CountedInstance() { ++live; }
  ~CountedInstance() override { --live; }
};
std::atomic<int> CountedInstance::live{0};

TEST(ArrayCacheGeneration, InvalidateDropsIdleAndInFlightLeases) {
  auto cache = std::make_shared<core::ArrayCache>(/*capacity=*/4);
  const core::InstanceKey key{1, 2};
  const auto build = [] { return std::make_unique<CountedInstance>(); };

  // An idle instance from before the scrub is dropped outright.
  { auto lease = core::ArrayCache::checkout(cache, key, build); }
  EXPECT_EQ(cache->stats().entries, 1u);
  EXPECT_EQ(cache->generation(), 0u);
  cache->invalidate_all();
  EXPECT_EQ(cache->generation(), 1u);
  EXPECT_EQ(cache->stats().entries, 0u);
  EXPECT_EQ(CountedInstance::live.load(), 0);

  // The half-tuned-lease barrier: an instance checked out BEFORE the scrub
  // must not be re-pooled on give-back — the next checkout re-builds (and
  // re-verifies) against the new device state.
  {
    auto lease = core::ArrayCache::checkout(cache, key, build);
    cache->invalidate_all();
  }  // give_back with a stale generation: discarded, not pooled.
  EXPECT_EQ(cache->stats().entries, 0u);
  EXPECT_EQ(CountedInstance::live.load(), 0);
  {
    auto lease = core::ArrayCache::checkout(cache, key, build);
  }  // Current generation: re-pooled normally.
  EXPECT_EQ(cache->stats().entries, 1u);
  EXPECT_EQ(CountedInstance::live.load(), 1);
}

// ------------------------------------------------ retune + bit identity ---

std::shared_ptr<const fault::FaultPlan> drift_plan(double rate, double volts) {
  fault::FaultConfig fc;
  fc.seed = 0xD21F7;
  fc.cell_rate = rate;
  fc.cell_drift_only = true;
  fc.cell_drift_v = volts;
  return std::make_shared<const fault::FaultPlan>(fc);
}

TEST(Retune, HealsDriftOnlyCellPlan) {
  const std::vector<double> p{0.4, -0.8, 1.2, 0.1}, q{-0.2, 0.9, 0.5, -1.0};
  core::AcceleratorConfig cfg;
  cfg.backend = core::Backend::Wavefront;
  core::DistanceSpec spec;  // DTW.

  core::Accelerator clean(cfg);
  clean.configure(spec);
  const core::ComputeResult ref = clean.try_compute(p, q).unwrap();

  // Sub-residual-tolerance drift: silently corrupts the solve (no
  // quarantine), so the faulty result differs from the clean one...
  cfg.faults = drift_plan(0.5, 0.04);
  core::Accelerator faulty(cfg);
  faulty.configure(spec);
  const core::ComputeResult bad = faulty.try_compute(p, q).unwrap();
  EXPECT_EQ(bad.quarantined_cells, 0u);
  EXPECT_NE(bad.value, ref.value);

  // ...and one scrub re-tunes every drifted cell: bitwise clean again.
  faulty.retune();
  const core::ComputeResult healed = faulty.try_compute(p, q).unwrap();
  EXPECT_EQ(healed.value, ref.value);
  EXPECT_EQ(healed.volts, ref.volts);
  EXPECT_TRUE(core::bitwise_equal(healed, ref));
}

TEST(Retune, RequestAttemptStacksOnAcceleratorAttempt) {
  // A request that starts at attempt 0 must not undo the accelerator's own
  // re-tune level (the scrub would be invisible to served queries).
  const std::vector<double> p{0.3, 1.0, -0.6}, q{0.8, -0.4, 0.2};
  core::AcceleratorConfig cfg;
  cfg.backend = core::Backend::Wavefront;
  cfg.faults = drift_plan(0.6, 0.04);
  core::DistanceSpec spec;

  core::Accelerator acc(cfg);
  acc.configure(spec);
  acc.retune();

  cfg.faults = nullptr;
  core::Accelerator clean(cfg);
  clean.configure(spec);

  QueryRequest req{p, q};  // fault_attempt = 0.
  const core::ComputeOutcome out = acc.try_compute(req);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().value, clean.try_compute(p, q).unwrap().value);
}

TEST(Retune, ScrubQuiescentBitIdentityAcrossThreadCounts) {
  // A streaming campaign interrupted by a quiescent scrub must produce the
  // same bits at any worker count: phase A (drifted), retune barrier,
  // phase B (healed), with every thread hammering the shared instance
  // cache.  Guards the generation barrier under real concurrency.
  const std::size_t kPairs = 6, kLen = 4;
  std::vector<std::vector<double>> ps, qs;
  for (std::size_t i = 0; i < kPairs; ++i) {
    std::vector<double> p(kLen), q(kLen);
    for (std::size_t j = 0; j < kLen; ++j) {
      p[j] = 0.3 * static_cast<double>((i + j) % 5) - 0.6;
      q[j] = 0.25 * static_cast<double>((i * 2 + j) % 7) - 0.7;
    }
    ps.push_back(std::move(p));
    qs.push_back(std::move(q));
  }

  auto run_campaign = [&](std::size_t threads) {
    core::AcceleratorConfig cfg;
    cfg.backend = core::Backend::Wavefront;
    cfg.faults = drift_plan(0.4, 0.04);
    cfg.cache_capacity = 4;
    core::Accelerator acc(cfg);
    acc.configure(core::DistanceSpec{});

    std::vector<double> out(2 * kPairs, 0.0);
    auto phase = [&](std::size_t base) {
      std::vector<std::thread> pool;
      std::atomic<std::size_t> next{0};
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
          for (std::size_t i = next.fetch_add(1); i < kPairs;
               i = next.fetch_add(1)) {
            out[base + i] = acc.try_compute(ps[i], qs[i]).unwrap().value;
          }
        });
      }
      for (std::thread& t : pool) t.join();
    };
    phase(0);        // Drifted.
    acc.retune();    // Quiescent scrub between phases.
    phase(kPairs);   // Healed.
    return out;
  };

  const std::vector<double> ref = run_campaign(1);
  for (const std::size_t threads : {2u, 8u}) {
    const std::vector<double> got = run_campaign(threads);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i], ref[i]) << "threads=" << threads << " slot=" << i;
    }
  }
  // The scrub actually changed the answers (drift healed).
  EXPECT_NE(ref[0], ref[kPairs]);
}

// ----------------------------------------------- serving layer loopback ---

serve::ServeOptions heal_options(std::size_t replicas) {
  serve::ServeOptions opts;
  opts.accelerator.backend = core::Backend::Wavefront;
  opts.default_spec.kind = dist::DistanceKind::Dtw;
  opts.replicas = replicas;
  return opts;
}

TEST(SelfHealServe, HealthFrameRoundTripOverTheWire) {
  serve::Server server(heal_options(2));
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  const std::vector<double> p{0.5, -0.3, 0.8}, q{0.1, 0.7, -0.2};
  const auto resp = client.call(QueryRequest{p, q}, 1);
  ASSERT_TRUE(resp && resp->ok()) << (resp ? resp->message : "lost");
  EXPECT_LT(resp->replica, 2u);

  const auto health = client.health(/*timeout_ms=*/2000);
  ASSERT_TRUE(health.has_value());
  ASSERT_EQ(health->shards.size(), 1u);
  ASSERT_EQ(health->shards[0].replicas.size(), 2u);
  for (const serve::ReplicaHealth& r : health->shards[0].replicas) {
    EXPECT_EQ(r.state, serve::ReplicaState::Healthy);
    EXPECT_EQ(r.scrubs, 0u);
  }
  // The same data the in-process snapshot reports.
  const serve::HealthReport direct = server.health_report();
  ASSERT_EQ(direct.shards.size(), 1u);
  EXPECT_EQ(direct.shards[0].replicas.size(), 2u);
  server.stop();
}

TEST(SelfHealServe, KillFailsOverRestartRecovers) {
  serve::Server server(heal_options(2));
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  const std::vector<double> p{0.2, 0.9, -0.5}, q{-0.1, 0.4, 1.0};

  // Shards materialise on first use; warm one up before addressing it.
  const auto warm = client.call(QueryRequest{p, q}, 1);
  ASSERT_TRUE(warm && warm->ok());

  ASSERT_TRUE(server.kill_replica(0, 0));
  // The dead replica is routed around: every query lands on replica 1.
  for (int i = 0; i < 4; ++i) {
    const auto r = client.call(QueryRequest{p, q}, 10 + i);
    ASSERT_TRUE(r && r->ok()) << (r ? r->message : "lost");
    EXPECT_EQ(r->replica, 1u);
  }
  {
    const serve::HealthReport hr = server.health_report();
    EXPECT_EQ(hr.kills, 1u);
    EXPECT_EQ(hr.shards[0].replicas[0].state, serve::ReplicaState::Down);
  }

  // Restart: both replicas serve again (round robin reaches replica 0).
  ASSERT_TRUE(server.restart_replica(0, 0));
  bool replica0_served = false;
  for (int i = 0; i < 8 && !replica0_served; ++i) {
    const auto r = client.call(QueryRequest{p, q}, 100 + i);
    ASSERT_TRUE(r && r->ok());
    replica0_served = r->replica == 0;
  }
  EXPECT_TRUE(replica0_served);
  EXPECT_EQ(server.health_report().restarts, 1u);

  // Double-kill / restart of a live replica are rejected cleanly.
  EXPECT_TRUE(server.kill_replica(0, 1));
  EXPECT_FALSE(server.kill_replica(0, 1));
  EXPECT_FALSE(server.restart_replica(0, 0));  // Not down.
  server.stop();
}

TEST(SelfHealServe, SingleReplicaKillAnswersOverloadedWithRetryHint) {
  serve::Server server(heal_options(1));
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  const std::vector<double> p{0.3, -0.2}, q{0.6, 0.1};

  const auto warm = client.call(QueryRequest{p, q}, 1);
  ASSERT_TRUE(warm && warm->ok());

  ASSERT_TRUE(server.kill_replica(0, 0));
  const auto r = client.call(QueryRequest{p, q}, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, QueryStatus::Overloaded);
  EXPECT_GT(r->retry_after_s, 0.0);
  server.stop();
}

TEST(SelfHealServe, ScrubbedReplicaServesRetunedBits) {
  serve::Server server(heal_options(1));
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  const std::vector<double> p{0.4, -0.8, 1.2, 0.1}, q{-0.2, 0.9, 0.5, -1.0};

  const auto warm = client.call(QueryRequest{p, q}, 0);
  ASSERT_TRUE(warm && warm->ok());

  // Inject silent drift; the served result must match a direct solve under
  // the same plan at attempt 0.
  auto plan = drift_plan(0.5, 0.04);
  ASSERT_TRUE(server.inject_fault_plan(0, 0, plan));
  const auto before = client.call(QueryRequest{p, q}, 1);
  ASSERT_TRUE(before && before->ok());

  core::AcceleratorConfig cfg = heal_options(1).accelerator;
  cfg.faults = plan;
  core::DistanceSpec spec;
  {
    core::Accelerator direct(cfg);
    direct.configure(spec);
    EXPECT_TRUE(
        core::bitwise_equal(before->result, direct.try_compute(p, q).unwrap()));
  }

  // Scrub: the replica re-tunes (never observable half-tuned) and serves
  // attempt-1 bits — i.e. the drift has healed to the clean solve.
  ASSERT_TRUE(server.scrub_replica(0, 0));
  const auto after = client.call(QueryRequest{p, q}, 2);
  ASSERT_TRUE(after && after->ok());
  {
    core::AcceleratorConfig clean_cfg = heal_options(1).accelerator;
    core::Accelerator clean(clean_cfg);
    clean.configure(spec);
    EXPECT_EQ(after->result.value, clean.try_compute(p, q).unwrap().value);
  }
  const serve::HealthReport hr = server.health_report();
  EXPECT_EQ(hr.shards[0].replicas[0].scrubs, 1u);  // Generation bumped.
  server.stop();
}

TEST(SelfHealServe, HedgedPipelinedLoadStaysBitIdentical) {
  serve::ServeOptions opts = heal_options(2);
  opts.hedge.enabled = true;
  opts.hedge.min_delay_s = 0.0;      // Hedge anything that queues at all.
  opts.hedge.poll_interval_s = 0.0005;
  opts.coalesce_window = 1;          // Keep the queue visibly nonempty.
  opts.collapse_duplicates = false;
  serve::Server server(opts);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  // A long DTW keeps each solve busy enough for the monitor to see a queue.
  const std::size_t kLen = 24, kInflight = 16;
  std::vector<double> p(kLen), q(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    p[i] = 0.1 * static_cast<double>(i % 7) - 0.3;
    q[i] = 0.15 * static_cast<double>((i * 3) % 5) - 0.2;
  }
  for (std::size_t i = 0; i < kInflight; ++i) {
    client.send(QueryRequest{p, q}, i);
  }
  std::vector<QueryResponse> got;
  for (std::size_t i = 0; i < kInflight; ++i) {
    auto r = client.recv(/*timeout_ms=*/30000);
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->ok()) << r->message;
    got.push_back(std::move(*r));
  }
  // Whatever replica answered (primary or hedge), the bits are the direct
  // solve's bits — first-wins cancellation never double-delivers.
  core::Accelerator direct(heal_options(1).accelerator);
  direct.configure(core::DistanceSpec{});
  const core::ComputeResult ref = direct.try_compute(p, q).unwrap();
  std::vector<bool> seen(kInflight, false);
  for (const QueryResponse& r : got) {
    ASSERT_LT(r.id, kInflight);
    EXPECT_FALSE(seen[r.id]);  // Exactly one response per request id.
    seen[r.id] = true;
    EXPECT_TRUE(core::bitwise_equal(r.result, ref));
  }
  server.stop();
}

TEST(SelfHealServe, ForceScrubScanHealsUnhealthyReplica) {
  serve::ServeOptions opts = heal_options(1);
  opts.selfheal.probe_len = 4;
  serve::Server server(opts);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  const std::vector<double> p{0.4, -0.8, 1.2, 0.1}, q{-0.2, 0.9, 0.5, -1.0};

  const auto warm = client.call(QueryRequest{p, q}, 1);
  ASSERT_TRUE(warm && warm->ok());
  EXPECT_EQ(server.force_scrub_scan(), 0u);  // Healthy fleet: no scrubs.

  ASSERT_TRUE(server.inject_fault_plan(0, 0, drift_plan(0.5, 0.04)));
  // Traffic accumulates evidence on the scoreboard...
  for (int i = 0; i < 12; ++i) {
    const auto r = client.call(QueryRequest{p, q}, 10 + i);
    ASSERT_TRUE(r && r->ok());
  }
  ASSERT_GT(server.health_report().shards[0].replicas[0].expected_error,
            0.08);
  // ...and a scan scrubs it back to health.  The worker's busy flag can
  // outlive the last response by a moment, so allow a few idle-window
  // retries before calling the scan a failure.
  std::size_t scrubbed = 0;
  for (int tries = 0; tries < 50 && scrubbed == 0; ++tries) {
    scrubbed = server.force_scrub_scan();
    if (scrubbed == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(scrubbed, 1u);
  const serve::ReplicaHealth healed = server.health_report().shards[0].replicas[0];
  EXPECT_LT(healed.expected_error, 0.02);
  EXPECT_EQ(healed.state, serve::ReplicaState::Healthy);
  server.stop();
}

// ------------------------------------------------------ client resilience --

TEST(ClientResilience, ReconnectsAfterServerSideClose) {
  serve::Server server(heal_options(1));
  server.start();
  serve::Client client;
  serve::ReconnectPolicy policy;
  policy.enabled = true;
  policy.max_attempts = 4;
  policy.base_delay_s = 0.001;
  policy.max_delay_s = 0.01;
  client.set_reconnect(policy);
  client.connect("127.0.0.1", server.port());
  const std::vector<double> p{0.2, 0.5}, q{-0.3, 0.9};

  // A framing error makes the server answer BadRequest and close this
  // connection; drain the error response so the dead socket is all that is
  // left...
  const std::uint8_t garbage[16] = {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0,
                                    0,    0,    0,    0,    0, 0, 0, 0};
  client.send_raw(garbage, sizeof garbage);
  const auto bad = client.recv(/*timeout_ms=*/2000);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, QueryStatus::BadRequest);
  // ...and call_with_retry redials transparently and still gets an answer.
  const auto r = client.call_with_retry(QueryRequest{p, q}, 7, 5000);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok()) << r->message;
  EXPECT_GE(client.reconnects(), 1u);
  server.stop();
}

TEST(ClientResilience, RetryBudgetExhaustsOnPersistentOverload) {
  serve::Server server(heal_options(1));
  server.start();
  serve::Client client;
  serve::ReconnectPolicy policy;
  policy.enabled = true;
  policy.max_attempts = 2;
  policy.base_delay_s = 0.001;
  policy.max_delay_s = 0.005;
  client.set_reconnect(policy);
  client.connect("127.0.0.1", server.port());
  const std::vector<double> p{0.1, 0.2}, q{0.3, 0.4};

  const auto warm = client.call_with_retry(QueryRequest{p, q}, 1, 5000);
  ASSERT_TRUE(warm && warm->ok());

  // Replica down and never restarted: the retry loop honours the server's
  // retry-after hints, then surfaces the final rejection.
  ASSERT_TRUE(server.kill_replica(0, 0));
  const auto r = client.call_with_retry(QueryRequest{p, q}, 2, 5000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, QueryStatus::Overloaded);

  // Healing the fleet heals the client path with no new connection.
  ASSERT_TRUE(server.restart_replica(0, 0));
  const auto ok = client.call_with_retry(QueryRequest{p, q}, 3, 5000);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok());
  server.stop();
}

TEST(ClientResilience, DisabledPolicySurfacesLossImmediately) {
  serve::Server server(heal_options(1));
  server.start();
  const std::uint16_t port = server.port();
  serve::Client client;
  client.connect("127.0.0.1", port);
  server.stop();  // Connection dies with the server.
  const std::vector<double> p{0.1}, q{0.2};
  const auto r = client.call_with_retry(QueryRequest{p, q}, 1, 1000);
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(client.reconnects(), 0u);
}

}  // namespace
