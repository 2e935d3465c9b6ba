// Observability overhead microbench: the per-write cost of counters and
// histograms with metrics enabled vs runtime-disabled, and the end-to-end
// throughput delta on a behavioral batch workload — the <2% budget that
// justifies leaving instrumentation on in production (DESIGN.md §8).
//
//   bench_obs [--ops=20000000] [--pairs=64] [--length=24] [--reps=5]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/accelerator.hpp"
#include "core/batch_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "util/rng.hpp"

using namespace mda;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// ns per operation for `op` repeated `ops` times.
template <typename Fn>
double time_op_ns(std::size_t ops, Fn&& op) {
  const double t0 = now_s();
  for (std::size_t i = 0; i < ops; ++i) op(i);
  return (now_s() - t0) / static_cast<double>(ops) * 1e9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median wall time of a behavioral batch pass with metrics on and off.
/// Reps alternate enabled/disabled so cache warmth and frequency drift hit
/// both sides equally.
void batch_seconds(const core::Accelerator& acc,
                   const std::vector<core::BatchQuery>& queries, int reps,
                   std::vector<double>& out_on, std::vector<double>& out_off,
                   double& t_on, double& t_off) {
  core::BatchOptions opts;
  opts.num_threads = 1;  // serial: isolates per-write cost from scheduling
  const core::BatchEngine engine(opts);
  (void)engine.compute_distances(acc, queries);  // warm-up, not timed
  std::vector<double> on, off;
  for (int r = 0; r < reps; ++r) {
    obs::set_enabled(true);
    double t0 = now_s();
    out_on = engine.compute_distances(acc, queries);
    on.push_back(now_s() - t0);
    obs::set_enabled(false);
    t0 = now_s();
    out_off = engine.compute_distances(acc, queries);
    off.push_back(now_s() - t0);
  }
  obs::set_enabled(true);
  t_on = median(on);
  t_off = median(off);
}

}  // namespace

int main(int argc, char** argv) {
  const auto ops = static_cast<std::size_t>(
      bench::flag_value(argc, argv, "ops", 20000000));
  const auto pairs =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "pairs", 64));
  const auto length =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "length", 24));
  const int reps =
      static_cast<int>(bench::flag_value(argc, argv, "reps", 5));

  std::printf("=== Observability overhead (%zu ops, %zu behavioral pairs, "
              "length %zu) ===\n\n",
              ops, pairs, length);

  static const obs::Counter counter("mda.obs.bench_counter");
  static const obs::Histogram hist("mda.obs.bench_hist");

  obs::set_enabled(true);
  const double counter_on = time_op_ns(ops, [](std::size_t) {
    counter.add();
  });
  const double hist_on = time_op_ns(ops, [](std::size_t i) {
    hist.observe(static_cast<double>(i + 1));
  });
  obs::set_enabled(false);
  const double counter_off = time_op_ns(ops, [](std::size_t) {
    counter.add();
  });
  const double hist_off = time_op_ns(ops, [](std::size_t i) {
    hist.observe(static_cast<double>(i + 1));
  });

  std::printf("counter.add      enabled %6.2f ns/op   disabled %6.2f ns/op\n",
              counter_on, counter_off);
  std::printf("hist.observe     enabled %6.2f ns/op   disabled %6.2f ns/op\n",
              hist_on, hist_off);

  // End-to-end: identical behavioral batch with metrics on vs off.
  util::Rng rng(42);
  std::vector<std::vector<double>> series;
  for (std::size_t s = 0; s < 2 * pairs; ++s) {
    std::vector<double> v(length);
    for (double& x : v) x = rng.uniform(-2.0, 2.0);
    series.push_back(std::move(v));
  }
  std::vector<core::BatchQuery> queries;
  for (std::size_t k = 0; k < pairs; ++k) {
    queries.push_back({series[2 * k], series[2 * k + 1]});
  }
  core::Accelerator acc;
  core::DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  acc.configure(spec, core::Backend::Behavioral);

  std::vector<double> out_on, out_off;
  double t_on = 0.0, t_off = 0.0;
  batch_seconds(acc, queries, reps, out_on, out_off, t_on, t_off);

  const double delta = t_off > 0.0 ? (t_on - t_off) / t_off * 100.0 : 0.0;
  std::printf("\nbehavioral batch: enabled %.4f s, disabled %.4f s "
              "(delta %+.2f%%, budget <2%%)\n",
              t_on, t_off, delta);
  const bool identical = out_on == out_off;
  std::printf("bit-identical results with metrics on/off: %s\n",
              identical ? "yes" : "NO");

  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* c = snap.find("mda.obs.bench_counter");
  std::printf("snapshot sees %zu metrics; bench counter total %llu\n",
              snap.metrics.size(),
              static_cast<unsigned long long>(c != nullptr ? c->count : 0));
  return identical ? 0 : 1;
}
