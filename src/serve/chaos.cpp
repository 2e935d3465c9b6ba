#include "serve/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "core/accelerator.hpp"
#include "fault/plan.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace mda::serve {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_s(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

std::vector<double> series(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(-1.5, 1.5);
  return s;
}

struct Slot {
  std::size_t pair = 0;
  std::optional<core::QueryResponse> resp;
};

/// The fixed event rotation.  Slot 4 is a placeholder: a kill at slot 3
/// forces the next boundary's event to "restart", so whatever is written
/// there never fires on the first cycle; "calm" keeps longer soaks sane.
constexpr const char* kRotation[] = {
    "calm",        // 0: baseline
    "inject_drift",  // 1: silent corruption on one replica
    "scrub",       // 2: manual scrub (the boundary scan usually beat it)
    "kill",        // 3: replica dies mid-fleet
    "calm",        // 4: (forced restart)
    "inject_stuck",  // 5: quarantined-but-degraded replica
    "scrub",       // 6: scrub cannot heal stuck-at; stays Degraded
    "slow_loris",  // 7: clients that stop reading
};
constexpr std::size_t kRotationLen = sizeof kRotation / sizeof kRotation[0];

}  // namespace

ChaosReport run_chaos(const ChaosOptions& o) {
  ChaosReport rep;
  const std::size_t replicas =
      std::clamp<std::size_t>(o.replicas, 1, 255);

  // Query universe: `pairs` (P, Q) couples on the default spec (one shard).
  std::vector<std::pair<std::vector<double>, std::vector<double>>> universe;
  universe.reserve(o.pairs);
  for (std::size_t j = 0; j < o.pairs; ++j) {
    const std::uint64_t s = o.seed * 1315423911ull + 2 * j;
    universe.push_back({series(s, o.length), series(s + 1, o.length)});
  }

  ServeOptions so;
  so.replicas = replicas;
  so.shard_queue_depth = 64;
  so.hedge.enabled = replicas > 1;
  so.selfheal.auto_scrub = false;  // Deterministic boundary scans instead.
  so.selfheal.probe_len = o.length;
  so.accelerator.backend = o.backend;
  Server server(so);
  server.start();
  const std::uint16_t port = server.port();
  const double healthy_threshold = so.selfheal.health.healthy_threshold;

  // ---- oracle ----
  // Every Ok response carries the index of the replica that solved it; the
  // harness mirrors each replica's (fault plan, re-tune attempt) across the
  // phase-synchronous schedule and replays the solve on a fresh accelerator
  // built from the same base config.  Bit-identity is required.
  std::vector<std::shared_ptr<const fault::FaultPlan>> plan_of(replicas);
  std::vector<int> plan_id_of(replicas, 0);  // 0 = healthy hardware.
  std::vector<bool> plan_is_drift(replicas, false);
  std::vector<int> attempt_of(replicas, 0);
  std::vector<std::uint64_t> last_generation(replicas, 0);
  int next_plan_id = 1;

  std::map<std::tuple<int, int, std::size_t>, core::ComputeOutcome> oracle_cache;
  std::mutex oracle_mu;
  auto oracle_matches = [&](const core::QueryResponse& resp,
                            std::size_t pair) -> bool {
    if (resp.replica >= replicas) return false;
    const std::tuple<int, int, std::size_t> key{
        plan_id_of[resp.replica], attempt_of[resp.replica], pair};
    const std::lock_guard<std::mutex> lock(oracle_mu);
    auto it = oracle_cache.find(key);
    if (it == oracle_cache.end()) {
      core::AcceleratorConfig cfg = so.accelerator;
      cfg.array_cache = nullptr;
      cfg.health = nullptr;
      cfg.faults = plan_of[resp.replica];
      cfg.fault_attempt = attempt_of[resp.replica];
      core::Accelerator acc(cfg);
      acc.configure(so.default_spec);
      core::QueryRequest req;
      req.p = universe[pair].first;
      req.q = universe[pair].second;
      it = oracle_cache.emplace(key, acc.try_compute(req)).first;
    }
    const core::ComputeOutcome& out = it->second;
    return out.ok() && core::bitwise_equal(resp.result, out.value());
  };

  // Attempt reconciliation: each scrub bumps the replica's scoreboard
  // generation by exactly one (and re-tunes, bumping fault_attempt by one);
  // a restart also bumps the generation once but RESETS the attempt (fresh
  // accelerator from the base config).  Reading the generation delta off the
  // health report therefore recovers the attempt without racing the server.
  auto reconcile = [&](std::optional<std::uint32_t> restarted) {
    const HealthReport hr = server.health_report();
    if (hr.shards.empty()) return;
    for (const ReplicaHealth& r : hr.shards[0].replicas) {
      if (r.index >= replicas) continue;
      std::uint64_t delta = r.scrubs - last_generation[r.index];
      last_generation[r.index] = r.scrubs;
      if (restarted && *restarted == r.index) {
        attempt_of[r.index] = 0;
        if (delta > 0) --delta;  // One bump was the restart's board reset.
      }
      if (delta == 0) continue;
      attempt_of[r.index] += static_cast<int>(delta);
      // Healing criterion: a scrub of drift-degraded (or healthy) hardware
      // must probe back under the healthy threshold.  Stuck-at hardware is
      // exempt — its cells stay quarantined and the replica stays Degraded,
      // which is the routing story, not the healing one.
      if (plan_is_drift[r.index] || plan_id_of[r.index] == 0) {
        rep.post_scrub_expected_error = r.expected_error;
        if (r.expected_error >= healthy_threshold) rep.scrub_healed = false;
      }
    }
  };

  // ---- clients ----
  const int timeout_ms =
      static_cast<int>(std::max(1.0, o.client_timeout_s * 1000.0));
  std::vector<Client> clients(std::max<std::size_t>(1, o.clients));
  for (std::size_t c = 0; c < clients.size(); ++c) {
    ReconnectPolicy rp;
    rp.enabled = true;
    rp.max_attempts = 6;
    rp.base_delay_s = 0.002;
    rp.max_delay_s = 0.1;
    rp.jitter_seed = o.seed ^ (0xC11E47ull + c);
    clients[c].set_reconnect(rp);
    clients[c].connect("127.0.0.1", port);
  }
  std::uint64_t next_id = 1;

  auto check_one = [&](std::optional<core::QueryResponse>& resp,
                       std::size_t pair, ChaosPhase& ph) {
    ++ph.sent;
    if (!resp) {
      ++ph.lost;
    } else if (!resp->ok()) {
      ++ph.rejected;
    } else {
      ++ph.ok;
      if (!oracle_matches(*resp, pair)) ++ph.wrong;
    }
  };

  // Warm-up: create the shard and seed the generation baselines.
  {
    ChaosPhase warm;
    core::QueryRequest req;
    req.p = universe[0].first;
    req.q = universe[0].second;
    auto resp = clients[0].call_with_retry(req, next_id++, timeout_ms);
    check_one(resp, 0, warm);
    rep.wrong += warm.wrong;
    const HealthReport hr = server.health_report();
    if (!hr.shards.empty()) {
      for (const ReplicaHealth& r : hr.shards[0].replicas) {
        if (r.index < replicas) last_generation[r.index] = r.scrubs;
      }
    }
  }

  util::Rng sched(o.seed ^ 0x5EC0DE5ull);
  bool down = false;
  std::uint32_t down_replica = 0;
  std::vector<Client> loris;  // Unread sockets, kept open to the end.

  for (std::size_t phase = 0; phase < o.phases; ++phase) {
    ChaosPhase ph;

    // 1. Pre-scan snapshot: the degraded peak before any healing acts.
    {
      const HealthReport hr = server.health_report();
      if (!hr.shards.empty()) {
        for (const ReplicaHealth& r : hr.shards[0].replicas) {
          rep.worst_expected_error =
              std::max(rep.worst_expected_error, r.expected_error);
          if (o.verbose) {
            std::fprintf(stderr,
                         "[chaos]   boundary %zu: replica %u state=%u "
                         "err=%.4f gen=%llu attempt=%d plan=%d drift=%d\n",
                         phase, r.index, static_cast<unsigned>(r.state),
                         r.expected_error,
                         static_cast<unsigned long long>(r.scrubs),
                         r.index < replicas ? attempt_of[r.index] : -1,
                         r.index < replicas ? plan_id_of[r.index] : -1,
                         r.index < replicas && plan_is_drift[r.index]);
          }
        }
      }
    }

    // 2. Boundary scrub scan (the deterministic stand-in for the background
    //    scheduler thread): probe every replica, scrub the ones over
    //    threshold.  Reconcile attempts before any identity check.
    server.force_scrub_scan();
    reconcile(std::nullopt);

    // 3. Chaos event.  A down replica forces "restart" so the schedule
    //    cannot wedge the fleet forever.
    std::string event = down ? "restart" : kRotation[phase % kRotationLen];
    if (event == "slow_loris" && !o.slow_loris) event = "calm";
    ph.event = event;

    if (event == "inject_drift" || event == "inject_stuck") {
      const bool drift = event == "inject_drift";
      const auto target = static_cast<std::uint32_t>(sched.index(replicas));
      fault::FaultConfig fc;
      fc.seed = o.seed ^ (0xD00Dull * static_cast<std::uint64_t>(next_plan_id));
      fc.cell_rate = drift ? o.drift_cell_rate : o.stuck_cell_rate;
      // Drift below the per-cell residual tolerance is silent corruption —
      // only the scoreboard's query/probe EWMAs can see it, and a re-tune
      // heals it.  The stuck plan's drift component is large enough to trip
      // the residual check, so its cells are quarantined (deterministic
      // prediction) and the replica stays Degraded instead.
      fc.cell_drift_only = drift;
      fc.cell_drift_v = drift ? o.drift_v : 0.2;
      auto plan = std::make_shared<const fault::FaultPlan>(fc);
      if (server.inject_fault_plan(0, target, plan)) {
        plan_of[target] = std::move(plan);
        plan_id_of[target] = next_plan_id++;
        plan_is_drift[target] = drift;
        ++rep.injections;
      }
    } else if (event == "scrub") {
      const auto target = static_cast<std::uint32_t>(sched.index(replicas));
      if (server.scrub_replica(0, target)) reconcile(std::nullopt);
    } else if (event == "kill") {
      const auto target = static_cast<std::uint32_t>(sched.index(replicas));
      if (server.kill_replica(0, target)) {
        down = true;
        down_replica = target;
        ++rep.kills;
      }
    } else if (event == "restart") {
      if (server.restart_replica(0, down_replica)) {
        down = false;
        ++rep.restarts;
        reconcile(down_replica);
        // Recovery: the fleet must serve an Ok answer within the deadline.
        const double t0 = now_s();
        bool served = false;
        while (now_s() - t0 < o.recovery_deadline_s) {
          core::QueryRequest req;
          req.p = universe[0].first;
          req.q = universe[0].second;
          auto resp = clients[0].call_with_retry(req, next_id++, timeout_ms);
          if (resp && resp->ok()) {
            served = true;
            if (!oracle_matches(*resp, 0)) ++rep.wrong;
            break;
          }
          sleep_s(0.005);
        }
        rep.worst_recovery_s =
            std::max(rep.worst_recovery_s, now_s() - t0);
        if (!served) rep.recovered = false;
      }
    } else if (event == "slow_loris") {
      // Two connections that push short-deadline requests and never read:
      // their responses must not block a worker (deadline-capped writes)
      // and they are excluded from the availability accounting.
      for (int l = 0; l < 2; ++l) {
        Client& victim = loris.emplace_back();
        try {
          victim.connect("127.0.0.1", port);
          for (int k = 0; k < 3; ++k) {
            core::QueryRequest req;
            req.p = universe[sched.index(o.pairs)].first;
            req.q = universe[sched.index(o.pairs)].second;
            req.deadline_s = 0.15;
            victim.send(req, next_id++);
          }
        } catch (const std::runtime_error&) {
          // A refused loris is chaos working as intended.
        }
      }
    }

    // 4. Phase traffic: every client replays its slice of the trace through
    //    call_with_retry (reconnect + Overloaded backoff built in).
    const std::size_t per_client =
        std::max<std::size_t>(1, o.queries_per_phase / clients.size());
    std::vector<std::vector<Slot>> results(clients.size());
    {
      std::vector<std::thread> threads;
      threads.reserve(clients.size());
      for (std::size_t c = 0; c < clients.size(); ++c) {
        results[c].resize(per_client);
        threads.emplace_back([&, c] {
          util::Rng rng(o.seed ^ (0x9E3779B9ull * (phase + 1) + 0x61C88647ull * c));
          const std::uint64_t base =
              1000 + (phase * clients.size() + c) * per_client;
          for (std::size_t k = 0; k < per_client; ++k) {
            Slot& slot = results[c][k];
            slot.pair = rng.index(o.pairs);
            core::QueryRequest req;
            req.p = universe[slot.pair].first;
            req.q = universe[slot.pair].second;
            req.tenant = rng.index(std::max<std::size_t>(1, o.tenants));
            slot.resp = clients[c].call_with_retry(req, base + k, timeout_ms);
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }

    // 5. Score the phase (the fleet is drained: every client joined).
    for (std::vector<Slot>& vec : results) {
      for (Slot& s : vec) check_one(s.resp, s.pair, ph);
    }
    ph.availability =
        ph.sent ? static_cast<double>(ph.ok) / static_cast<double>(ph.sent)
                : 1.0;
    rep.min_phase_availability =
        std::min(rep.min_phase_availability, ph.availability);
    rep.queries += ph.sent;
    rep.ok += ph.ok;
    rep.rejected += ph.rejected;
    rep.lost += ph.lost;
    rep.wrong += ph.wrong;
    if (o.verbose) {
      std::fprintf(stderr,
                   "[chaos] phase %zu %-12s sent=%llu ok=%llu rej=%llu "
                   "lost=%llu wrong=%llu avail=%.3f\n",
                   phase, ph.event.c_str(),
                   static_cast<unsigned long long>(ph.sent),
                   static_cast<unsigned long long>(ph.ok),
                   static_cast<unsigned long long>(ph.rejected),
                   static_cast<unsigned long long>(ph.lost),
                   static_cast<unsigned long long>(ph.wrong),
                   ph.availability);
    }
    rep.phases.push_back(std::move(ph));
  }

  for (Client& c : clients) rep.client_reconnects += c.reconnects();
  for (Client& c : loris) c.close();
  for (Client& c : clients) c.close();
  const ServerStats st = server.stats();
  server.stop();

  rep.scrubs = st.scrubs;
  rep.hedges_launched = st.hedges_launched;
  rep.hedges_won = st.hedges_won;
  rep.failovers = st.failovers;
  rep.availability =
      rep.queries ? static_cast<double>(rep.ok) / static_cast<double>(rep.queries)
                  : 1.0;
  return rep;
}

}  // namespace mda::serve
