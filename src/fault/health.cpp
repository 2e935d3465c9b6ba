#include "fault/health.hpp"

#include <algorithm>
#include <cmath>

namespace mda::fault {

void HealthScoreboard::record_quarantine(std::size_t i, std::size_t j,
                                         double residual_v) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_.quarantines;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
  double& score = cells_[key];
  const double next =
      (1.0 - cfg_.cell_alpha) * score + cfg_.cell_alpha * std::fabs(residual_v);
  cell_sq_sum_ += next * next - score * score;
  score = next;
}

void HealthScoreboard::record_query(double relative_error, bool fault_detected,
                                    int fallbacks, long newton_iterations) {
  (void)newton_iterations;
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_.queries;
  if (fault_detected || fallbacks > 0) ++counts_.faults_detected;
  query_ewma_ = (1.0 - cfg_.query_alpha) * query_ewma_ +
                cfg_.query_alpha * std::fabs(relative_error);
}

void HealthScoreboard::record_watchdog_trip() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_.watchdog_trips;
}

void HealthScoreboard::record_envelope_trip() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_.envelope_trips;
}

void HealthScoreboard::record_backend_failure() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_.backend_failures;
}

void HealthScoreboard::record_probe(double relative_error, bool ok) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_.probes;
  // A failed probe is the worst possible signal: saturate its error term.
  const double err = ok ? std::fabs(relative_error) : 1.0;
  probe_ewma_ = (1.0 - cfg_.probe_alpha) * probe_ewma_ + cfg_.probe_alpha * err;
}

void HealthScoreboard::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  cells_.clear();
  cell_sq_sum_ = 0.0;
  query_ewma_ = 0.0;
  probe_ewma_ = 0.0;
  ++counts_.generation;
}

double HealthScoreboard::expected_error_locked() const {
  // MemSE-style propagation: treat the three observation channels as
  // independent error sources and combine in quadrature.  cell_sq_sum_ is
  // already the sum of squared per-cell scores, so the cell term enters as
  // cell_scale^2 * sum(s_ij^2); tracked cells add a fixed suspicion floor.
  const double cell_sq = std::max(cell_sq_sum_, 0.0);
  const double tracked =
      cfg_.tracked_cell_penalty * static_cast<double>(cells_.size());
  return std::sqrt(query_ewma_ * query_ewma_ + probe_ewma_ * probe_ewma_ +
                   cfg_.cell_scale * cfg_.cell_scale * cell_sq +
                   tracked * tracked);
}

double HealthScoreboard::expected_error() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return expected_error_locked();
}

HealthSnapshot HealthScoreboard::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  HealthSnapshot s = counts_;
  s.expected_error = expected_error_locked();
  s.cell_rss = std::sqrt(std::max(cell_sq_sum_, 0.0));
  s.query_ewma = query_ewma_;
  s.probe_ewma = probe_ewma_;
  s.tracked_cells = cells_.size();
  return s;
}

void HealthJournal::record_quarantine(std::size_t i, std::size_t j,
                                      double residual_v) {
  events_.push_back({.kind = Kind::Quarantine, .i = i, .j = j,
                     .value = residual_v});
}

void HealthJournal::record_query(double relative_error, bool fault_detected,
                                 int fallbacks, long newton_iterations) {
  events_.push_back({.kind = Kind::Query,
                     .fault_detected = fault_detected,
                     .fallbacks = fallbacks,
                     .value = relative_error,
                     .newton_iterations = newton_iterations});
}

void HealthJournal::record_watchdog_trip() {
  events_.push_back({.kind = Kind::WatchdogTrip});
}

void HealthJournal::record_envelope_trip() {
  events_.push_back({.kind = Kind::EnvelopeTrip});
}

void HealthJournal::record_backend_failure() {
  events_.push_back({.kind = Kind::BackendFailure});
}

void HealthJournal::replay(HealthSink& sink) const {
  for (const Event& e : events_) {
    switch (e.kind) {
      case Kind::Quarantine:
        sink.record_quarantine(e.i, e.j, e.value);
        break;
      case Kind::Query:
        sink.record_query(e.value, e.fault_detected, e.fallbacks,
                          e.newton_iterations);
        break;
      case Kind::WatchdogTrip:
        sink.record_watchdog_trip();
        break;
      case Kind::EnvelopeTrip:
        sink.record_envelope_trip();
        break;
      case Kind::BackendFailure:
        sink.record_backend_failure();
        break;
    }
  }
}

}  // namespace mda::fault
