#pragma once
// Low-overhead metrics and tracing for the whole stack (DESIGN.md §8).
//
// Three metric kinds, addressed by dotted names following the scheme
// `mda.<subsystem>.<name>` (enforced by tools/check_metrics_names.cmake):
//
//  * Counter    — monotonically increasing event count (u64 add).
//  * Gauge      — last-written value (double set).
//  * Histogram  — value distribution: count / sum / min / max plus
//                 log2-spaced buckets, wide enough for both second-scale
//                 timers and unit-scale counts.
//
// Concurrency model: every writing thread owns a private shard holding one
// slot per registered metric; writes are relaxed atomics on uncontended
// cache lines (a snapshot may read them concurrently from another thread).
// `collect()` aggregates live shards plus the retained totals of exited
// threads, so no write ever takes a lock and the batch engine's workers
// never serialise on instrumentation.
//
// Overhead control: `set_enabled(false)` short-circuits every write behind
// one relaxed bool load (the default is enabled).
//
// Call sites keep a function-local handle so name lookup happens once:
//
//   static const obs::Counter c("mda.spice.newton_iterations");
//   c.add(result.iterations);
//
//   static const obs::Histogram h("mda.batch.task_time_s");
//   { obs::ScopedTimer t(h); work(); }

#include <cstdint>
#include <string>
#include <vector>

namespace mda::obs {

enum class MetricKind { Counter, Gauge, Histogram };

/// Number of log2 buckets per histogram.  Bucket b counts observations with
/// ilogb(value) == b + kHistMinExp; the end buckets absorb under/overflow.
inline constexpr int kHistBuckets = 64;
/// Smallest resolved exponent: 2^-40 ~ 1e-12 (picosecond timers).
inline constexpr int kHistMinExp = -40;

/// Aggregated state of one metric at snapshot time.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t count = 0;  ///< Counter total / histogram observation count.
  double sum = 0.0;         ///< Histogram sum (mean = sum / count).
  double min = 0.0;         ///< Histogram minimum (0 when count == 0).
  double max = 0.0;         ///< Histogram maximum.
  double value = 0.0;       ///< Gauge last-written value.
  std::vector<std::uint64_t> buckets;  ///< Histogram only; else empty.

  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Process-wide runtime switch.  Disabled writes cost one relaxed load.
bool enabled();
void set_enabled(bool on);

namespace detail {

/// Register (or look up) a metric; returns its dense id.  Thread-safe and
/// idempotent — re-registering the same name/kind returns the same id.
/// Registering an existing name with a different kind throws.
std::size_t register_metric(const std::string& name, MetricKind kind);

/// Register a histogram; returns its dense histogram SLOT index (the value
/// histogram_observe expects), not the metric id.
std::size_t register_histogram(const std::string& name);

// Shard-local write paths (relaxed atomics on this thread's slots).
void counter_add(std::size_t id, std::uint64_t n);
void gauge_set(std::size_t id, double v);
void histogram_observe(std::size_t hist_index, double v);

double monotonic_seconds();

}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  explicit Counter(const std::string& name)
      : id_(detail::register_metric(name, MetricKind::Counter)) {}
  void add(std::uint64_t n = 1) const {
    if (enabled()) detail::counter_add(id_, n);
  }

 private:
  std::size_t id_;
};

/// Last-written value (low-rate status: pool size, active config, ...).
class Gauge {
 public:
  explicit Gauge(const std::string& name)
      : id_(detail::register_metric(name, MetricKind::Gauge)) {}
  void set(double v) const {
    if (enabled()) detail::gauge_set(id_, v);
  }

 private:
  std::size_t id_;
};

/// Value distribution (count/sum/min/max + log2 buckets).
class Histogram {
 public:
  explicit Histogram(const std::string& name)
      : id_(detail::register_histogram(name)) {}
  void observe(double v) const {
    if (enabled()) detail::histogram_observe(id_, v);
  }

 private:
  std::size_t id_;
};

/// RAII timer recording elapsed seconds into a Histogram on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(const Histogram& hist)
      : hist_(&hist),
        start_(enabled() ? detail::monotonic_seconds() : 0.0) {}
  ~ScopedTimer() {
    if (start_ != 0.0) hist_->observe(detail::monotonic_seconds() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const Histogram* hist_;
  double start_;
};

/// Aggregate every registered metric across all shards (live threads plus
/// totals retained from exited threads), sorted by name.  Safe to call
/// concurrently with writers; each slot is read atomically (per-slot
/// consistency, not a global atomic cut — fine for monitoring).
std::vector<MetricValue> collect();

/// Zero every shard and the retained totals (gauges revert to 0).  For
/// tests and per-command deltas; not safe concurrently with writers.
void reset();

}  // namespace mda::obs
