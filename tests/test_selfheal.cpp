// Self-healing serving tests (DESIGN.md §14): health-scoreboard units
// (EWMAs, quadrature expected-error, hysteresis, reset/generation),
// accelerator retune healing drifted cell plans, a scrub keeping the
// wavefront instance pool, scrub-quiescent bit-identity across thread
// counts, and the serving layer's replica
// lifecycle — health frame loopback, kill/failover/restart, the scrub scan
// (probe every pass, threshold trigger, busy skip, background thread),
// scrub-then-serve identity, replicated pipelined load, the chaos soak's
// fixed-seed determinism, client auto-reconnect and retry-after handling.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/accelerator.hpp"
#include "core/array_cache.hpp"
#include "core/backend.hpp"
#include "core/query.hpp"
#include "distance/registry.hpp"
#include "fault/health.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "serve/chaos.hpp"
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

TEST(Retune, ScrubKeepsWavefrontPool) {
  // A scrub is a retune plus a scoreboard reset (DESIGN.md §14).  No pooled
  // row array depends on the plan or the attempt, so the pool
  // survives retune() and set_fault_plan(): a repeated query is a cache hit
  // whose bits equal a fresh accelerator's with the same plan and attempt.
  const std::vector<double> p{0.4, -0.8, 1.2, 0.1}, q{-0.2, 0.9, 0.5, -1.0};
  for (const dist::DistanceKind kind :
       {dist::DistanceKind::Hamming, dist::DistanceKind::Manhattan}) {
    core::AcceleratorConfig cfg;
    cfg.backend = core::Backend::Wavefront;
    cfg.faults = drift_plan(0.5, 0.04);
    core::DistanceSpec spec;
    spec.kind = kind;
    spec.threshold = 0.3;
    core::Accelerator acc(cfg);
    acc.configure(spec);
    (void)acc.try_compute(p, q).unwrap();  // Fills the pool.

    auto expect_hit_equal_to_fresh = [&](const char* what) {
      const core::ArrayCache::Stats before = acc.config().array_cache->stats();
      const core::ComputeResult got = acc.try_compute(p, q).unwrap();
      const core::ArrayCache::Stats after = acc.config().array_cache->stats();
      EXPECT_GT(after.hits, before.hits) << what;
      EXPECT_EQ(after.misses, before.misses) << what;

      core::AcceleratorConfig fresh_cfg = acc.config();
      fresh_cfg.array_cache = nullptr;
      fresh_cfg.cache_capacity = 0;
      core::Accelerator fresh(fresh_cfg);
      fresh.configure(spec);
      EXPECT_TRUE(core::bitwise_equal(got, fresh.try_compute(p, q).unwrap()))
          << what;
    };
    acc.retune();
    expect_hit_equal_to_fresh("after retune");
    acc.set_fault_plan(drift_plan(0.3, 0.03));
    expect_hit_equal_to_fresh("after set_fault_plan");
  }
}

TEST(Retune, ScrubQuiescentBitIdentityAcrossThreadCounts) {
  // A streaming campaign interrupted by a quiescent scrub must produce the
  // same bits at any worker count: phase A (drifted), retune barrier,
  // phase B (healed), with every thread hammering the shared instance
  // cache, which the scrub keeps.
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

TEST(SelfHealServe, ReplicatedPipelinedLoadStaysBitIdentical) {
  serve::ServeOptions opts = heal_options(2);
  opts.coalesce_window = 1;          // Keep the queues visibly nonempty.
  opts.collapse_duplicates = false;
  serve::Server server(opts);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  // A long DTW keeps each solve busy enough for both queues to fill.
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
  // Whichever replica answered, the bits are the direct solve's bits, and
  // no request is answered twice.
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

/// Deterministic test series, distinct per salt.
std::vector<double> test_series(std::size_t len, std::size_t salt) {
  std::vector<double> v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = 0.13 * static_cast<double>((i * 7 + salt * 3) % 11) - 0.6;
  }
  return v;
}

/// Poll the health report until `pred(replica 0 of shard 0)` holds or the
/// deadline passes.
template <typename Pred>
bool wait_for_replica0(const serve::Server& server, Pred pred,
                       double deadline_s = 30.0) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(deadline_s);
  while (std::chrono::steady_clock::now() < give_up) {
    const serve::HealthReport hr = server.health_report();
    if (!hr.shards.empty() && pred(hr.shards[0].replicas[0])) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

std::uint64_t metric_count(const char* name) {
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* v = snap.find(name);
  return v != nullptr ? v->count : 0;
}

TEST(SelfHealServe, KillWithQueuedRequestsFailsOver) {
  serve::ServeOptions opts = heal_options(2);
  opts.coalesce_window = 1;  // One long solve at a time: the queue fills.
  serve::Server server(opts);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  // Distinct long DTW requests, so every answer has its own direct solve.
  // Round robin puts every other one on replica 0.
  constexpr std::size_t kLen = 24, kInflight = 16;
  std::vector<std::pair<std::vector<double>, std::vector<double>>> pairs;
  for (std::size_t k = 0; k < kInflight; ++k) {
    pairs.emplace_back(test_series(kLen, k), test_series(kLen, k + 40));
  }
  for (std::size_t k = 0; k < kInflight; ++k) {
    client.send(QueryRequest{pairs[k].first, pairs[k].second}, k);
  }
  // Kill replica 0 while requests still wait in its queue: they must fail
  // over to replica 1, not be rejected or dropped.
  ASSERT_TRUE(wait_for_replica0(server, [](const serve::ReplicaHealth& r) {
    return r.queue_depth >= 2;
  }));
  ASSERT_TRUE(server.kill_replica(0, 0));

  std::vector<std::optional<QueryResponse>> got(kInflight);
  for (std::size_t k = 0; k < kInflight; ++k) {
    auto r = client.recv(/*timeout_ms=*/60000);
    ASSERT_TRUE(r.has_value());
    ASSERT_LT(r->id, kInflight);
    EXPECT_FALSE(got[r->id].has_value()) << "id " << r->id << " answered twice";
    got[r->id] = std::move(*r);
  }
  core::Accelerator direct(opts.accelerator);
  direct.configure(opts.default_spec);
  for (std::size_t k = 0; k < kInflight; ++k) {
    ASSERT_TRUE(got[k].has_value()) << "id " << k << " never answered";
    ASSERT_TRUE(got[k]->ok()) << k << ": " << got[k]->message;
    const core::ComputeOutcome want =
        direct.try_compute(QueryRequest{pairs[k].first, pairs[k].second});
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(core::bitwise_equal(got[k]->result, want.value())) << k;
  }
  const serve::ServerStats st = server.stats();
  EXPECT_GT(st.failovers, 0u);
  EXPECT_EQ(server.health_report().failovers, st.failovers);
  server.stop();
}

TEST(SelfHealServe, ScrubScanProbesIdleReplicasEveryPass) {
  serve::ServeOptions opts = heal_options(2);
  opts.selfheal.probe_len = 4;
  serve::Server server(opts);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  const auto warm =
      client.call(QueryRequest{test_series(4, 1), test_series(4, 2)}, 1);
  ASSERT_TRUE(warm && warm->ok());

  // The worker can hold its replica for a moment after the warm response
  // is written; wait for a pass that finds both replicas idle.
  std::uint64_t probed = 0;
  for (int tries = 0; tries < 500 && probed < 2; ++tries) {
    const std::uint64_t before = server.stats().probes;
    EXPECT_EQ(server.force_scrub_scan(), 0u);
    probed = server.stats().probes - before;
    if (probed < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(probed, 2u);
  // No traffic from here on: every pass probes each replica exactly once,
  // and a healthy replica is never scrubbed.
  for (int pass = 0; pass < 5; ++pass) {
    const std::uint64_t before = server.stats().probes;
    EXPECT_EQ(server.force_scrub_scan(), 0u);
    EXPECT_EQ(server.stats().probes, before + 2);
  }
  EXPECT_EQ(server.stats().scrubs, 0u);
  const serve::HealthReport hr = server.health_report();
  for (const serve::ReplicaHealth& r : hr.shards[0].replicas) {
    EXPECT_EQ(r.scrubs, 0u);
    EXPECT_EQ(r.state, serve::ReplicaState::Healthy);
  }
  server.stop();
}

TEST(SelfHealServe, ScrubScanSkipsBusyReplicaCountsFailedScrub) {
  // Stuck-at cells are quarantined on every solve, and tracked cells keep
  // the estimate above the unhealthy threshold between solves.
  fault::FaultConfig fc;
  fc.seed = 0x5EC0;
  fc.cell_rate = 0.3;
  serve::ServeOptions opts = heal_options(1);
  opts.accelerator.faults = std::make_shared<const fault::FaultPlan>(fc);
  opts.coalesce_window = 1;
  opts.collapse_duplicates = false;
  serve::Server server(opts);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  constexpr std::size_t kLen = 24, kInflight = 8;
  for (std::size_t k = 0; k < kInflight; ++k) {
    client.send(QueryRequest{test_series(kLen, k), test_series(kLen, k + 1)},
                k);
  }
  // Unhealthy, with requests still queued: the pass must not take it.
  ASSERT_TRUE(wait_for_replica0(server, [](const serve::ReplicaHealth& r) {
    return r.expected_error > 0.08 && r.queue_depth >= 2;
  }));
  const std::uint64_t busy_before =
      metric_count("mda.fault.scrub.skipped_busy");
  EXPECT_EQ(server.force_scrub_scan(), 0u);
  EXPECT_EQ(metric_count("mda.fault.scrub.skipped_busy"), busy_before + 1);
  EXPECT_EQ(server.stats().scrubs, 0u);
  for (std::size_t k = 0; k < kInflight; ++k) {
    const auto r = client.recv(/*timeout_ms=*/60000);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->ok()) << r->message;
  }

  // A Down replica is not serving, so the scan skips it: over threshold or
  // not, a killed replica is neither busy nor a failed scrub (it is not
  // stuck-at damage), and no scrub happens.
  ASSERT_GT(server.health_report().shards[0].replicas[0].expected_error, 0.08);
  ASSERT_TRUE(server.kill_replica(0, 0));
  const std::uint64_t failures_before =
      metric_count("mda.fault.scrub.failures");
  const std::uint64_t busy_after_kill =
      metric_count("mda.fault.scrub.skipped_busy");
  EXPECT_EQ(server.force_scrub_scan(), 0u);
  EXPECT_EQ(metric_count("mda.fault.scrub.failures"), failures_before);
  EXPECT_EQ(metric_count("mda.fault.scrub.skipped_busy"), busy_after_kill);
  EXPECT_EQ(server.stats().scrubs, 0u);
  server.stop();
}

TEST(SelfHealServe, BackgroundScanProbesUntilStopped) {
  serve::ServeOptions opts = heal_options(1);
  opts.selfheal.auto_scrub = true;
  opts.selfheal.scan_interval_s = 0.002;
  serve::Server server(opts);
  for (int cycle = 0; cycle < 2; ++cycle) {
    server.start();  // A restart runs the scan thread again.
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    const auto warm =
        client.call(QueryRequest{test_series(4, 1), test_series(4, 2)}, 1);
    ASSERT_TRUE(warm && warm->ok());
    const std::uint64_t start = server.stats().probes;
    // No forced pass: only the background thread probes.
    for (int tries = 0; tries < 10000 && server.stats().probes < start + 3;
         ++tries) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(server.stats().probes, start + 3);
    server.stop();
    const std::uint64_t after = server.stats().probes;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(server.stats().probes, after);  // No scans after stop().
  }
}

TEST(SelfHealServe, ParallelWindowKeepsScoreboardSequential) {
  // A faulty replica's window of many unique requests is solved in
  // parallel on the server's batch engine.  Responses must still equal
  // direct solves bit for bit, and the scoreboard must end byte-identical
  // to feeding the same requests through try_compute one by one in window
  // order (its EWMAs depend on event order; completion order must not leak
  // into it).
  fault::FaultConfig fc;
  fc.seed = 0x5EC0;
  fc.cell_rate = 0.3;  // Stuck-low, stuck-high and drift cells.
  serve::ServeOptions opts = heal_options(1);
  opts.accelerator.faults = std::make_shared<const fault::FaultPlan>(fc);
  opts.coalesce_window = 64;
  serve::Server server(opts);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  // A long blocker occupies the worker while the rest queue up behind it,
  // so the second window holds all of them.  Lengths vary so the parallel
  // solves finish out of submission order.
  constexpr std::size_t kUnique = 16;
  std::vector<std::pair<std::vector<double>, std::vector<double>>> pairs;
  pairs.emplace_back(test_series(32, 1), test_series(32, 2));
  for (std::size_t k = 0; k < kUnique; ++k) {
    const std::size_t len = 3 + (kUnique - k) % 6;
    pairs.emplace_back(test_series(len, k + 3),
                       test_series(len + k % 2, k + 5));
  }
  const std::uint64_t windows_before = metric_count("mda.serve.windows");
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    client.send(QueryRequest{pairs[k].first, pairs[k].second}, k);
  }
  std::vector<std::optional<QueryResponse>> got(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    auto r = client.recv(/*timeout_ms=*/60000);
    ASSERT_TRUE(r.has_value());
    ASSERT_LT(r->id, pairs.size());
    got[r->id] = std::move(*r);
  }
  // 17 requests in at most two windows: the second held >= 8 of them.
  EXPECT_LE(metric_count("mda.serve.windows") - windows_before, 2u);

  core::Accelerator direct(opts.accelerator);
  direct.configure(opts.default_spec);
  auto board = std::make_shared<fault::HealthScoreboard>(opts.selfheal.health);
  direct.set_health(board);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const core::ComputeOutcome want =
        direct.try_compute(QueryRequest{pairs[k].first, pairs[k].second});
    ASSERT_TRUE(got[k].has_value());
    ASSERT_TRUE(want.ok()) << want.error().message;
    ASSERT_TRUE(got[k]->ok()) << got[k]->message;
    EXPECT_TRUE(core::bitwise_equal(got[k]->result, want.value())) << k;
  }

  const fault::HealthSnapshot want = board->snapshot();
  const std::optional<fault::HealthSnapshot> served = server.scoreboard(0, 0);
  ASSERT_TRUE(served.has_value());
  // Health events fired, so the comparison has order-sensitive content.
  EXPECT_GT(want.quarantines, 0u);
  EXPECT_NE(want.query_ewma, 0.0);
  EXPECT_EQ(want.queries, pairs.size());
  EXPECT_EQ(std::memcmp(&*served, &want, sizeof want), 0)
      << "served expected_error " << served->expected_error << " vs "
      << want.expected_error << ", query_ewma " << served->query_ewma
      << " vs " << want.query_ewma;
  EXPECT_FALSE(server.scoreboard(0, 1).has_value());
  server.stop();
}

// ------------------------------------------------------ chaos determinism --

TEST(ChaosSoak, FixedSeedSingleFleetIsDeterministic) {
  // One replica and one client: chaos fires only at drained phase
  // boundaries, and a worker delivers a window's responses only after it
  // has released the replica, so the boundary scan finds the same replica
  // state on every run.  The report is then a function of the seed; only
  // the wall-clock recovery time may differ.  (With two clients the
  // scoreboard still follows how their requests interleave, DESIGN.md §14.)
  serve::ChaosOptions o;
  o.seed = 3;
  o.replicas = 1;
  o.clients = 1;
  const serve::ChaosReport first = serve::run_chaos(o);
  ASSERT_TRUE(first.zero_wrong());
  EXPECT_GT(first.scrubs, 0u);
  for (int run = 1; run < 16; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    const serve::ChaosReport again = serve::run_chaos(o);
    ASSERT_EQ(again.phases.size(), first.phases.size());
    for (std::size_t i = 0; i < first.phases.size(); ++i) {
      const serve::ChaosPhase& a = first.phases[i];
      const serve::ChaosPhase& b = again.phases[i];
      EXPECT_EQ(b.event, a.event) << "phase " << i;
      EXPECT_EQ(b.sent, a.sent) << "phase " << i;
      EXPECT_EQ(b.ok, a.ok) << "phase " << i;
      EXPECT_EQ(b.rejected, a.rejected) << "phase " << i;
      EXPECT_EQ(b.lost, a.lost) << "phase " << i;
      EXPECT_EQ(b.wrong, a.wrong) << "phase " << i;
      EXPECT_EQ(b.availability, a.availability) << "phase " << i;
    }
    EXPECT_EQ(again.queries, first.queries);
    EXPECT_EQ(again.ok, first.ok);
    EXPECT_EQ(again.rejected, first.rejected);
    EXPECT_EQ(again.lost, first.lost);
    EXPECT_EQ(again.wrong, first.wrong);
    EXPECT_EQ(again.availability, first.availability);
    EXPECT_EQ(again.min_phase_availability, first.min_phase_availability);
    EXPECT_EQ(again.injections, first.injections);
    EXPECT_EQ(again.kills, first.kills);
    EXPECT_EQ(again.restarts, first.restarts);
    EXPECT_EQ(again.scrubs, first.scrubs);
    EXPECT_EQ(again.failovers, first.failovers);
    EXPECT_EQ(again.client_reconnects, first.client_reconnects);
    EXPECT_EQ(again.worst_expected_error, first.worst_expected_error);
    EXPECT_EQ(again.post_scrub_expected_error,
              first.post_scrub_expected_error);
    EXPECT_EQ(again.scrub_healed, first.scrub_healed);
    EXPECT_EQ(again.recovered, first.recovered);
  }
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
