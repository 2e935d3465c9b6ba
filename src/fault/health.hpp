#pragma once
// Per-array device-health scoreboard (DESIGN.md §14).
//
// PR 3 made single queries *survive* faults; this scoreboard is the memory
// between queries that makes the service *heal*: every solve-time detector
// (Newton watchdog trips, envelope violations, wavefront cell quarantines,
// per-cell residual predictors) plus periodic probe queries feed per-cell
// health scores and an array-level MemSE-style expected-error estimate
// (Zhou et al.: independent per-device error sources propagate to the
// output in quadrature).  The serve scrub scan (serve/server.cpp) reads
// the estimate against hysteresis thresholds and re-tunes a replica whose
// array degrades; admission routes traffic around replicas whose boards
// are unhealthy.
//
// Layering: like detection.hpp this file is shared with layers *below*
// core (backends report into it via AcceleratorConfig::health), so it uses
// only primitive types — no core/ includes.
//
// Concurrency: all recorders take one short mutex; recorders fire at most a
// few times per query (quarantines are rare by construction), so the board
// is never on a per-cell hot path.
//
// Order: the EWMAs make the board a function of the order its events
// arrive in.  Solves that run in parallel (serve's windows on the shared
// batch engine) therefore record into a per-solve HealthJournal and the
// owner replays the journals into the board in a fixed order, which keeps
// the board byte-identical to a sequential run.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace mda::fault {

/// Scoreboard weights and the hysteresis thresholds the scrub scheduler
/// evaluates.  Defaults are calibrated by the chaos harness: a drifting
/// array crosses `unhealthy_threshold` within a phase of traffic and a
/// freshly scrubbed one probes back below `healthy_threshold`.
struct HealthConfig {
  double cell_alpha = 0.30;   ///< EWMA weight for per-cell residual scores.
  double query_alpha = 0.20;  ///< EWMA weight for per-query relative error.
  double probe_alpha = 0.50;  ///< EWMA weight for probe relative error.
  /// Scale mapping the per-cell residual RSS [V] into the relative-error
  /// domain of the query/probe terms.
  double cell_scale = 1.0;
  /// Fixed penalty (relative-error units) per *currently tracked* faulty
  /// cell — a cell that keeps tripping the residual predictor is suspect
  /// even while quarantine masks its output.
  double tracked_cell_penalty = 0.01;

  double unhealthy_threshold = 0.08;  ///< Scrub when estimate rises above.
  double healthy_threshold = 0.02;    ///< Healed when estimate falls below.
};

/// One consistent read of the board (under the lock).
struct HealthSnapshot {
  double expected_error = 0.0;  ///< Array-level MemSE-style estimate.
  double cell_rss = 0.0;        ///< RSS of per-cell residual EWMAs [V].
  double query_ewma = 0.0;      ///< EWMA of per-query relative error.
  double probe_ewma = 0.0;      ///< EWMA of probe relative error.
  std::size_t tracked_cells = 0;
  std::uint64_t queries = 0;
  std::uint64_t faults_detected = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t envelope_trips = 0;
  std::uint64_t backend_failures = 0;
  std::uint64_t probes = 0;
  std::uint64_t generation = 0;  ///< Bumped by every reset() (scrub count).
};

/// Where solve-time detectors report (AcceleratorConfig::health): the
/// scoreboard itself, or a journal that defers the events.
class HealthSink {
 public:
  virtual ~HealthSink() = default;
  HealthSink() = default;
  HealthSink(const HealthSink&) = delete;
  HealthSink& operator=(const HealthSink&) = delete;
  HealthSink(HealthSink&&) = delete;
  HealthSink& operator=(HealthSink&&) = delete;

  /// Cell (i, j) was quarantined (output replaced by the prediction).
  virtual void record_quarantine(std::size_t i, std::size_t j,
                                 double residual_v) = 0;
  /// One finished query: observed relative error + detector provenance.
  virtual void record_query(double relative_error, bool fault_detected,
                            int fallbacks, long newton_iterations) = 0;
  virtual void record_watchdog_trip() = 0;
  virtual void record_envelope_trip() = 0;
  virtual void record_backend_failure() = 0;
};

/// The events of one solve, kept in arrival order for a later replay.  Not
/// thread-safe: each concurrent solve gets its own journal.
class HealthJournal final : public HealthSink {
 public:
  void record_quarantine(std::size_t i, std::size_t j,
                         double residual_v) override;
  void record_query(double relative_error, bool fault_detected,
                    int fallbacks, long newton_iterations) override;
  void record_watchdog_trip() override;
  void record_envelope_trip() override;
  void record_backend_failure() override;

  /// Feed every recorded event to `sink`, in the order it was recorded.
  void replay(HealthSink& sink) const;

 private:
  enum class Kind : std::uint8_t {
    Quarantine,
    Query,
    WatchdogTrip,
    EnvelopeTrip,
    BackendFailure,
  };
  struct Event {
    Kind kind;
    bool fault_detected = false;
    int fallbacks = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    double value = 0.0;  ///< Quarantine residual [V] or relative error.
    long newton_iterations = 0;
  };
  std::vector<Event> events_;
};

class HealthScoreboard final : public HealthSink {
 public:
  explicit HealthScoreboard(HealthConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] const HealthConfig& config() const { return cfg_; }

  // ---- solve-time feeds -------------------------------------------------
  void record_quarantine(std::size_t i, std::size_t j,
                         double residual_v) override;
  void record_query(double relative_error, bool fault_detected,
                    int fallbacks, long newton_iterations) override;
  void record_watchdog_trip() override;
  void record_envelope_trip() override;
  void record_backend_failure() override;
  /// One probe query (the cheap periodic health check).
  void record_probe(double relative_error, bool ok);

  // ---- scrub interface --------------------------------------------------
  /// Post-scrub wipe: per-cell scores and EWMAs go to zero (the re-tuned
  /// array must re-earn its score), counters are kept, generation bumps.
  void reset();

  // ---- reads ------------------------------------------------------------
  [[nodiscard]] HealthSnapshot snapshot() const;
  /// Array-level expected output error: quadrature (RSS) combination of the
  /// query-observed, probe-observed and per-cell terms.
  [[nodiscard]] double expected_error() const;
  [[nodiscard]] bool unhealthy() const {
    return expected_error() > cfg_.unhealthy_threshold;
  }
  [[nodiscard]] bool healthy() const {
    return expected_error() < cfg_.healthy_threshold;
  }

 private:
  [[nodiscard]] double expected_error_locked() const;

  HealthConfig cfg_;
  mutable std::mutex mu_;
  /// Per-cell EWMA of |residual| [V], keyed (i << 32) | j.
  std::unordered_map<std::uint64_t, double> cells_;
  double cell_sq_sum_ = 0.0;  ///< Sum of squared cell scores (incremental).
  double query_ewma_ = 0.0;
  double probe_ewma_ = 0.0;
  HealthSnapshot counts_{};  ///< Counter fields only.
};

}  // namespace mda::fault
