#pragma once
// Shared plumbing of the benchmark runner: command-line arguments,
// outside-in spans, counter deltas read through obs::collect(), the
// per-layer helpers the workloads share, and the result record every
// workload fills in.
//
// Spans are recorded only by this runner, around calls into the library's
// public functions; nothing inside the library is instrumented for the
// benchmark.  Layer self time is wall-clock attribution: every instant of a
// root span is shared equally among the innermost spans open at that
// instant, so concurrent worker spans never add up to more than the wall
// time they overlap (see attribute()).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "obs/metrics.hpp"

namespace pb {

/// Seconds on the steady clock.
double now_s();

/// Parsed command line: --workload, --seed, --seconds, --trace, --tiny and
/// --trace-out.  Workload sizes are constants in each workload's source;
/// --tiny=1 selects the small sizes the self-test runs.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

// ------------------------------------------------------------------ spans --

struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "accelerator.lockstep".
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  ///< Index of the causing span; -1 = none.
  std::uint64_t request = 0;  ///< Request / group id shared by a request's spans.
};

/// In-memory span store.  Disabled tracers record nothing (begin returns -1
/// and end ignores it), so traced and untraced code paths are the same
/// source.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  std::int64_t begin(const std::string& name, std::int64_t parent,
                     std::uint64_t request = 0);
  void end(std::int64_t id);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Write every span as JSON (one object per line inside an array).
  bool write(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, std::int64_t parent,
             std::uint64_t request = 0)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

/// Wall-clock attribution inside span `root`: returns attributed seconds per
/// span name over the root's descendants, plus "<root>" for instants where
/// no descendant is open.  The values sum to the root's duration.
std::map<std::string, double> attribute(const std::vector<Span>& spans,
                                        std::int64_t root);

/// Sum of raw (unattributed) durations of spans named `name`, and their
/// count.
double span_total(const std::vector<Span>& spans, const std::string& name,
                   std::size_t* count = nullptr);
/// Mean raw duration of the spans named `name`; 0 when there are none.
double mean_span(const std::vector<Span>& spans, const std::string& name);

// --------------------------------------------------------------- counters --

/// Snapshot of every mda.* metric (obs::collect()), for deltas taken while
/// the program is quiescent.
class Counters {
 public:
  static Counters capture();
  /// Counter total or histogram observation count.
  [[nodiscard]] double count(const std::string& name) const;
  /// Histogram sum.
  [[nodiscard]] double sum(const std::string& name) const;
  /// Gauge value.
  [[nodiscard]] double gauge(const std::string& name) const;

 private:
  std::map<std::string, mda::obs::MetricValue> m_;
};

/// b - a for counters / histogram counts.
inline double delta(const Counters& a, const Counters& b,
                    const std::string& name) {
  return b.count(name) - a.count(name);
}
inline double delta_sum(const Counters& a, const Counters& b,
                        const std::string& name) {
  return b.sum(name) - a.sum(name);
}

// ---------------------------------------------------------------- results --

/// What one run reports.  `metrics` holds every metric the workload
/// measured; run.py picks the end-to-end or per-layer set from it.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Raw per-repetition samples behind median metrics (quartiles in run.py).
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, bool> gates;
  std::map<std::string, double> info;

  /// Record a correctness gate; a failing gate makes the run incorrect.
  void gate(const std::string& name, bool ok) {
    auto it = gates.find(name);
    gates[name] = (it == gates.end() ? true : it->second) && ok;
    if (!ok) correct = false;
  }
};

/// Bitwise double equality (NaN == NaN, -0.0 != +0.0).
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Set every per-layer metric to 0 — the value of a layer the workload
/// bypasses — before the workload fills in the ones it measures.
void zero_fill_layers(Report& rep);
/// spice.* counts and spice.refactor_ratio from a quiescent counter delta.
void spice_layer(const Counters& a, const Counters& b, Report& rep);
/// array_cache.hits/misses/evictions/hit_ratio and
/// accelerator.lanes_batched_ratio from a quiescent counter delta.
void cache_layer(const Counters& a, const Counters& b, Report& rep);
/// batch_engine.call_s, busy_ratio and queue_wait_mean_ms: `call_s` is the
/// span time of the calls into an engine of `threads` workers, and the
/// counters bracket those calls.
void engine_layer(const Counters& a, const Counters& b, std::size_t threads,
                  double call_s, Report& rep);

/// One lane of a FullSpice replay: the backend's evaluation and the value
/// decode_output made of it.
struct LaneReplay {
  mda::core::AnalogEval eval;
  double value = 0.0;
};
/// Replays one lockstep group outside-in: encode_inputs per lane, one
/// eval_full_spice_batch over the group, decode_output per lane, each under
/// its own span ("backend.encode", "backend.fullspice.<kind>",
/// "backend.decode") with parent `parent` and request id `request`.
std::vector<LaneReplay> replay_fullspice(
    Tracer& t, const mda::core::Accelerator& acc,
    std::span<const mda::core::QueryRequest> group, std::int64_t parent,
    std::uint64_t request);
/// backend.fullspice_ms_per_lane.<kind> and spice.us_per_newton_iter.<kind>
/// from `seconds` of the kind's eval_full_spice_batch spans over `lanes`
/// lanes that took `newton_iterations` Newton iterations.
void fullspice_layer(const std::string& kind, double seconds, double lanes,
                     double newton_iterations, Report& rep);

double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Times one set-up, records its seconds in rep.samples["setup_s"] and
/// returns what it built.  Workloads repeat throwaway set-ups between their
/// timed passes: the host's slow phases last seconds, so set-ups timed back
/// to back can all land in one.  setup_s is the median of every recorded
/// set-up (main.cpp).
template <typename Setup>
auto timed_setup(Report& rep, Setup&& setup) {
  const double t0 = now_s();
  auto built = setup();
  rep.samples["setup_s"].push_back(now_s() - t0);
  return built;
}

int run_knn(const Args& args, Tracer& tracer, Report& rep);
int run_profile(const Args& args, Tracer& tracer, Report& rep);
int run_serve(const Args& args, Tracer& tracer, Report& rep);

}  // namespace pb
