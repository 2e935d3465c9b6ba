#pragma once
// Chaos soak harness (DESIGN.md §14): replay a deterministic multi-tenant
// trace against an in-process `mda serve` fleet while a seeded chaos
// schedule injects faults between phases — drift/stuck-at fault plans on
// individual replicas, replica kills and restarts, forced and
// threshold-triggered scrubs, slow-loris clients that stop reading — and
// check the self-healing invariants:
//
//  * zero wrong answers: every successful response is bit-identical to a
//    direct Accelerator::try_compute on a fresh accelerator carrying the
//    responding replica's fault plan and re-tune attempt at that phase;
//  * bounded unavailability: rejections/lost connections stay under a
//    budget when a sibling replica exists (replicas=1 shows the unbounded
//    degradation the bench contrasts against);
//  * recovery: after a kill the fleet serves again within a deadline of the
//    restart;
//  * healing: a scrub of a drift-degraded replica brings its expected-error
//    estimate back below the healthy threshold.
//
// Determinism: chaos events fire only at phase boundaries, after every
// in-flight response has drained, so each response is attributable to one
// (replica plan, re-tune attempt) pair; the schedule, trace and fault plans
// all derive from ChaosOptions::seed.  With one client the whole report
// except worst_recovery_s is a function of the options; with several, the
// scoreboards follow how their requests interleave (DESIGN.md §14).  Used
// by the tier-1 chaos_smoke test, `mda chaos` and bench_chaos.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace mda::serve {

struct ChaosOptions {
  std::uint64_t seed = 0xC4A05ull;
  /// One full event rotation: calm, inject-drift, scrub, kill, (forced)
  /// restart, inject-stuck, scrub, slow-loris.  Chaos fires between phases.
  std::size_t phases = 8;
  std::size_t queries_per_phase = 36;
  std::size_t clients = 2;
  std::size_t replicas = 2;
  std::size_t pairs = 10;   ///< Query universe size (one shard).
  std::size_t tenants = 8;
  std::size_t length = 4;   ///< Sequence length (DP grid is length^2).
  core::Backend backend = core::Backend::Wavefront;

  /// Drift plan: per-cell rate and a sub-residual-tolerance drift voltage —
  /// silent corruption the per-cell check cannot see, caught only by the
  /// scoreboard's query/probe EWMAs and healed by a re-tune.
  double drift_cell_rate = 0.35;
  double drift_v = 0.04;
  /// Stuck-at plan: quarantined (masked) by the residual check, so results
  /// stay deterministic but the replica accumulates tracked-cell penalty.
  double stuck_cell_rate = 0.15;

  bool slow_loris = true;          ///< Include the stop-reading client event.
  double recovery_deadline_s = 5.0;
  double client_timeout_s = 30.0;
  bool verbose = false;  ///< Per-phase progress on stderr.
};

struct ChaosPhase {
  std::string event;         ///< Applied at this phase's start.
  std::uint64_t sent = 0;    ///< Identity-checked queries (loris excluded).
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t lost = 0;    ///< nullopt from the client (connection-level).
  std::uint64_t wrong = 0;   ///< Bit-identity violations (must be 0).
  double availability = 1.0;
};

struct ChaosReport {
  std::vector<ChaosPhase> phases;
  std::uint64_t queries = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t lost = 0;
  std::uint64_t wrong = 0;  ///< Total bit-identity violations (must be 0).
  double availability = 1.0;
  double min_phase_availability = 1.0;

  std::uint64_t injections = 0;
  std::uint64_t kills = 0;
  std::uint64_t restarts = 0;
  std::uint64_t scrubs = 0;  ///< Manual + threshold-triggered.
  std::uint64_t failovers = 0;
  std::uint64_t client_reconnects = 0;

  /// Worst expected-error estimate observed right before any scrub, and the
  /// estimate right after the last drift-heal scrub (the healing check).
  double worst_expected_error = 0.0;
  double post_scrub_expected_error = 0.0;
  bool scrub_healed = true;  ///< Post-drift-scrub estimate < healthy.

  bool recovered = true;       ///< Fleet served again after every restart.
  double worst_recovery_s = 0.0;

  [[nodiscard]] bool zero_wrong() const { return wrong == 0; }
};

/// Run the chaos soak (deterministic for fixed ChaosOptions with one
/// client, see above).
[[nodiscard]] ChaosReport run_chaos(const ChaosOptions& opts);

}  // namespace mda::serve
