#pragma once
// `mda serve` (DESIGN.md §13, §14): a sharded multi-tenant streaming query
// service over the wire protocol in serve/protocol.hpp.
//
// Architecture — one epoll IO thread, one worker thread per shard replica,
// one batch engine shared by every worker:
//
//   IO thread      accept / read / decode / admit / route / enqueue
//   shard          (kind, threshold, band, backend-override) -> replicas
//   replica        one configured Accelerator + device-health scoreboard +
//                  bounded request queue + worker
//   worker         drain up to coalesce_window requests, drop expired
//                  deadlines, collapse bitwise-identical duplicates, solve
//                  the unique rest as one parallel_for job on the shared
//                  engine (the worker works through its own job; idle
//                  engine threads help whichever shard is hot), replay the
//                  solves' health journals into the scoreboard in window
//                  order, release the replica, then fan responses back out
//                  to their sockets (a failed solve is answered, never
//                  re-run: it would return the same bits)
//   engine         core::BatchEngine, hardware_concurrency threads, a FIFO
//                  of the workers' jobs.  It has no size knob: `replicas`
//                  means fault isolation, not parallelism, and the pool is
//                  sized to the host.
//
// Admission control happens before a request ever reaches a worker: a full
// replica queue (or a shard table at max_shards) answers Overloaded with a
// retry-after hint, a tenant over its in-flight quota answers QuotaExceeded,
// and a request whose relative deadline lapses while queued answers
// DeadlineExpired at dequeue.  Rejected requests cost no analog solve.
//
// Self-healing layer (DESIGN.md §14): every replica owns a
// fault::HealthScoreboard fed by its accelerator's solve-time detectors and
// by probe queries; admission routes around replicas that are Degraded
// (when a Healthy sibling exists), Scrubbing or Down; a killed replica's
// queued requests fail over to a sibling.  One scan, run by
// force_scrub_scan() or by the background thread under
// selfheal.auto_scrub, walks every replica: it probes an idle one, and
// re-tunes one whose expected-error estimate is above the unhealthy
// threshold when it has an idle window.  All of it is surfaced as
// mda.serve.health.* / mda.fault.scrub.* metrics and the wire Health frame.
//
// Bit-identity contract: a served response's result is bit-identical to
// Accelerator::try_compute(request) on a fresh accelerator with the same
// AcceleratorConfig (including the responding replica's fault plan and
// fault_attempt at solve time — the response carries the replica index) and
// the shard's DistanceSpec, at any shard/replica/thread count — the worker
// calls the exact same try_compute entry point BatchEngine uses, every
// solve is deterministic, and duplicate collapse keys on exact payload+knob
// bit equality, so a fanned-out response equals the response
// of a dedicated solve.  The scoreboard is deterministic too: at the end of
// every window it is byte-identical to feeding the window's unique requests
// through try_compute one by one, in window order.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "fault/health.hpp"
#include "serve/protocol.hpp"

namespace mda::fault {
class FaultPlan;
}  // namespace mda::fault

namespace mda::serve {

/// Self-healing knobs: scoreboard weights, probe policy, scrub scan.
struct SelfHealOptions {
  /// Run the scrub scan on a background thread.  Off by default: tests and
  /// the chaos harness drive deterministic passes via force_scrub_scan().
  bool auto_scrub = false;
  double scan_interval_s = 0.05;  ///< Background scan (and probe) period.
  /// Probe sequence length (the cheap periodic health query, run only when
  /// a replica is idle); 0 disables probing.
  std::size_t probe_len = 4;
  /// Scoreboard weights + the hysteresis thresholds used for routing and
  /// scrub decisions.
  fault::HealthConfig health{};
};

struct ServeOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via Server::port()).
  int listen_backlog = 64;
  std::size_t max_connections = 256;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Bounded per-replica queue; a request arriving when every routable
  /// replica's queue is full is rejected Overloaded (backpressure instead
  /// of unbounded memory).
  std::size_t shard_queue_depth = 256;
  /// Shard-table ceiling; a request needing a new shard beyond it is
  /// rejected Overloaded.
  std::size_t max_shards = 16;
  /// Replicas per shard (DESIGN.md §14).  Each replica owns its own
  /// accelerator, instance cache and health scoreboard; > 1 enables
  /// failover.  Clamped to [1, 255] (the wire replica byte).
  std::size_t replicas = 1;
  /// Per-tenant in-flight request ceiling (admitted but unanswered);
  /// 0 = unlimited.
  std::size_t tenant_inflight_quota = 0;

  /// Max requests one worker drain coalesces into a solve window.
  std::size_t coalesce_window = 64;
  /// Collapse bitwise-identical requests within a window into one solve.
  bool collapse_duplicates = true;

  SelfHealOptions selfheal{};

  /// Base accelerator build for every shard replica: array geometry,
  /// default backend, cache capacity, fault handling.  Replicas differ only
  /// in their (per-replica) instance cache, scoreboard and injected fault
  /// plan; a pre-installed array_cache is ignored — every replica owns its
  /// pool, so replicas never contend on one cache lock.
  core::AcceleratorConfig accelerator{};
  /// Spec for requests that do not pin a kind (QueryRequest::kind unset).
  core::DistanceSpec default_spec{};
};

/// Monotonic totals since start() (see also the mda.serve.* metrics).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests = 0;   ///< Frames decoded into requests.
  std::uint64_t responses = 0;  ///< Responses written (any status).
  std::uint64_t rejected = 0;   ///< Non-Ok serving-layer responses.
  std::uint64_t collapsed = 0;  ///< Requests answered by a duplicate's solve.
  std::uint64_t solves = 0;     ///< Accelerator evaluations submitted.
  std::uint64_t shards = 0;     ///< Shards instantiated (monotonic).
  std::uint64_t failovers = 0;  ///< Requests re-homed off a dead replica.
  std::uint64_t scrubs = 0;     ///< Replica scrub/re-tune actions.
  std::uint64_t probes = 0;     ///< Health probe queries run.
};

class Server {
 public:
  explicit Server(ServeOptions opts = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spin up the IO thread (plus the scrub-scan thread
  /// when selfheal.auto_scrub is set).  Throws std::runtime_error when the
  /// socket cannot be bound.
  void start();
  /// Drain and join everything; queued-but-unsolved requests are answered
  /// ShuttingDown and the shard table is cleared, so a subsequent start()
  /// begins from a clean slate.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const;
  /// The bound port (after start(); resolves port = 0 to the ephemeral
  /// choice).
  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] const ServeOptions& options() const;
  [[nodiscard]] ServerStats stats() const;

  // ---- self-healing surface (DESIGN.md §14) ----

  /// Fleet health snapshot — the same data the wire Health frame carries.
  /// Shards are indexed in shard-key order; the indices are stable for the
  /// life of a start()/stop() cycle and are what the chaos controls below
  /// address.
  [[nodiscard]] HealthReport health_report() const;
  /// One synchronous scrub scan over every replica (probe + threshold
  /// check + idle-window check + scrub), serialised against the background
  /// scan.  Deterministic alternative to auto_scrub for tests and the chaos
  /// harness; returns the number of scrubs run (failed ones included).
  std::size_t force_scrub_scan();
  /// Full scoreboard snapshot of one replica (nullopt when the address does
  /// not exist).  The Health frame carries a summary of the same board.
  [[nodiscard]] std::optional<fault::HealthSnapshot> scoreboard(
      std::size_t shard_index, std::uint32_t replica) const;

  // ---- chaos controls (tests + `mda chaos`) ----
  // All return false when the (shard, replica) address does not exist or
  // the replica is in the wrong state for the action.

  /// Kill a replica: its worker exits, queued requests fail over to a
  /// sibling (or are rejected Overloaded when none can take them).
  bool kill_replica(std::size_t shard_index, std::uint32_t replica);
  /// Restart a Down replica with a fresh accelerator (same config + fault
  /// plan — the hardware keeps its faults across a process restart) and a
  /// reset scoreboard.
  bool restart_replica(std::size_t shard_index, std::uint32_t replica);
  /// Swap the replica's fault plan (nullptr = healthy hardware).  Waits for
  /// the replica's in-flight batch to finish, so no solve straddles plans.
  bool inject_fault_plan(std::size_t shard_index, std::uint32_t replica,
                         std::shared_ptr<const fault::FaultPlan> plan);
  /// Scrub one replica now (drain window, re-tune, re-probe), regardless of
  /// its score.
  bool scrub_replica(std::size_t shard_index, std::uint32_t replica);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mda::serve
