// Streaming-query benchmark for the cross-query instance cache
// (DESIGN.md §11).  The paper's deployment model is configure once, stream
// many (Fig. 1, §3.3): the control module writes the PE configuration once
// and the DAC array streams query pairs through the fixed fabric.  This
// bench measures exactly that amortisation: a kNN-shaped stream (one probe
// against many candidates, same configuration throughout) evaluated fresh
// (cache_capacity = 0, rebuild per query) versus cached (default LRU), for
// every distance kind on the Wavefront backend.  FullSpice has no cached
// path (it builds per query), and neither has HauD Wavefront, whose
// wall-clock speedup therefore reads about 1.0 by construction.
//
// Two speedups are reported per kind (DESIGN.md §11):
//  * wall-clock — simulator time saved by instance reuse.  Structurally
//    bounded: the solve dominates a simulated query, so skipping rebuilds
//    can only shave the build fraction;
//  * hw_stream_speedup — the paper's deployment-level number, from the
//    modeled hardware times: programming the fabric before every query
//    (Accelerator::configuration_time_s) versus programming it once and
//    streaming every query through the fixed configuration.
//
// --json=<path> [--queries=N] [--length=L] runs the fixed
// scenario and writes a machine-readable comparison (committed baseline:
// BENCH_stream.json) with the host fingerprint.  Each kind's fresh and
// cached streams run kRepeats times, alternating, each time on newly built
// accelerators; the JSON carries the median and the min/max spread.  Exit code 2 if any cached result differs bitwise
// from its fresh-build reference — the cache contract — else 0.  Without
// --json it runs the google-benchmark microbenchmarks below.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/accelerator.hpp"
#include "core/array_cache.hpp"
#include "distance/registry.hpp"
#include "host_fingerprint.hpp"
#include "util/rng.hpp"

using namespace mda;

namespace {

std::vector<double> series(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(-1.5, 1.5);
  return s;
}

/// kNN-shaped stream: one probe against `queries` candidates.
struct Stream {
  std::vector<double> p;
  std::vector<std::vector<double>> candidates;
};

Stream make_stream(dist::DistanceKind kind, std::size_t queries,
                   std::size_t length) {
  Stream s;
  s.p = series(1000 + static_cast<std::uint64_t>(kind), length);
  for (std::size_t i = 0; i < queries; ++i) {
    s.candidates.push_back(series(2000 + 17 * i, length));
  }
  return s;
}

core::DistanceSpec spec_for(dist::DistanceKind kind) {
  core::DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.3;  // LCS/EdD comparator threshold
  return spec;
}

/// Stream repetitions per kind.
constexpr std::size_t kRepeats = 3;

/// Wall seconds of the repeated streams: the median and the spread.
struct Timing {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Timing summarize(std::vector<double> t) {
  std::sort(t.begin(), t.end());
  return {t[t.size() / 2], t.front(), t.back()};
}

struct KindRun {
  Timing fresh;
  Timing cached;
  bool bit_identical = true;
  std::uint64_t hits = 0;
  std::uint64_t builds_avoided = 0;
  // Modeled hardware times (DESIGN.md §11): the fabric programming cost the
  // configure-once deployment pays once, and the summed per-query analog
  // evaluation time of the stream.
  double hw_config_s = 0.0;
  double hw_query_s = 0.0;
  std::size_t queries = 0;
  [[nodiscard]] double speedup() const {
    return cached.median > 0.0 ? fresh.median / cached.median : 0.0;
  }
  /// Modeled stream throughput ratio: reprogram the fabric before every
  /// query (the configure-per-query baseline) versus program it once and
  /// stream the whole batch through the fixed configuration.
  [[nodiscard]] double hw_stream_speedup() const {
    const double once = hw_config_s + hw_query_s;
    const double per_query =
        static_cast<double>(queries) * hw_config_s + hw_query_s;
    return once > 0.0 ? per_query / once : 0.0;
  }
};

/// Time the stream through `acc`, collecting results.
double run_stream(const core::Accelerator& acc, const Stream& s,
                  std::vector<core::ComputeResult>* results) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& q : s.candidates) {
    core::ComputeResult r = acc.try_compute(s.p, q).unwrap();
    if (results) results->push_back(r);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

KindRun run_kind(dist::DistanceKind kind, std::size_t queries,
                 std::size_t length) {
  const Stream s = make_stream(kind, queries, length);
  const core::DistanceSpec spec = spec_for(kind);

  KindRun run;
  std::vector<double> fresh_s, cached_s;
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    core::AcceleratorConfig fresh_cfg;
    fresh_cfg.backend = core::Backend::Wavefront;
    fresh_cfg.cache_capacity = 0;  // rebuild the fabric for every query
    core::Accelerator fresh(fresh_cfg);
    fresh.configure(spec);

    core::AcceleratorConfig cached_cfg;
    cached_cfg.backend = core::Backend::Wavefront;  // default cache_capacity
    core::Accelerator cached(cached_cfg);
    cached.configure(spec);

    std::vector<core::ComputeResult> want, got;
    want.reserve(queries);
    got.reserve(queries);
    fresh_s.push_back(run_stream(fresh, s, &want));
    cached_s.push_back(run_stream(cached, s, &got));
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!core::bitwise_equal(want[i], got[i])) run.bit_identical = false;
    }
    run.queries = got.size();
    run.hw_config_s = cached.configuration_time_s();
    run.hw_query_s = 0.0;
    for (const auto& r : got) run.hw_query_s += r.convergence_time_s;
    const core::ArrayCache::Stats stats = cached.config().array_cache->stats();
    run.hits = stats.hits;
    run.builds_avoided = stats.builds_avoided;
  }
  run.fresh = summarize(fresh_s);
  run.cached = summarize(cached_s);
  return run;
}

int run_json_bench(const std::string& path, int argc, char** argv) {
  const auto queries =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "queries", 100));
  const auto length =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "length", 5));

  bool all_identical = true;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[bench_stream] cannot open %s\n", path.c_str());
    return 1;
  }
  bench::JsonWriter w(out);
  w.begin_object();
  w.field("bench", "stream_cache");
  w.begin_object("scenario");
  w.field("shape", "knn");
  w.field("backend", "wavefront");
  w.field("queries", queries);
  w.field("length", length);
  w.field("repeats", kRepeats);
  w.end();
  w.raw("host", bench::host_fingerprint_json());
  double fresh_total = 0.0, cached_total = 0.0;
  double hw_once_total = 0.0, hw_per_query_total = 0.0;
  w.begin_object("kinds");
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    std::fprintf(stderr, "[bench_stream] %s (%zu queries, length %zu)\n",
                 dist::kind_name(kind).c_str(), queries, length);
    // Totals sum the per-kind medians.
    const KindRun run = run_kind(kind, queries, length);
    fresh_total += run.fresh.median;
    cached_total += run.cached.median;
    hw_once_total += run.hw_config_s + run.hw_query_s;
    hw_per_query_total +=
        static_cast<double>(run.queries) * run.hw_config_s + run.hw_query_s;
    all_identical = all_identical && run.bit_identical;
    w.begin_object(dist::kind_name(kind), /*one_line=*/true);
    w.field("fresh_seconds", run.fresh.median);
    w.field("fresh_min_seconds", run.fresh.min);
    w.field("fresh_max_seconds", run.fresh.max);
    w.field("cached_seconds", run.cached.median);
    w.field("cached_min_seconds", run.cached.min);
    w.field("cached_max_seconds", run.cached.max);
    w.field("speedup", run.speedup());
    w.field("cache_hits", run.hits);
    w.field("builds_avoided", run.builds_avoided);
    w.field("hw_configuration_seconds", run.hw_config_s);
    w.field("hw_stream_query_seconds", run.hw_query_s);
    w.field("hw_stream_speedup", run.hw_stream_speedup());
    w.field("bit_identical", run.bit_identical);
    w.end();
  }
  w.end();  // kinds
  const double agg = cached_total > 0.0 ? fresh_total / cached_total : 0.0;
  const double hw_agg =
      hw_once_total > 0.0 ? hw_per_query_total / hw_once_total : 0.0;
  w.field("fresh_seconds", fresh_total);
  w.field("cached_seconds", cached_total);
  w.field("speedup", agg);
  w.field("hw_stream_speedup", hw_agg);
  w.field("all_bit_identical", all_identical);
  w.end();
  out.close();
  std::fprintf(stderr,
               "[bench_stream] wall-clock speedup %.2fx, modeled hw stream "
               "speedup %.1fx\n",
               agg, hw_agg);
  std::fprintf(stderr, "[bench_stream] wrote %s (bit-identical %s)\n",
               path.c_str(), all_identical ? "yes" : "no");
  return all_identical ? 0 : 2;
}

// ------------------------------------------------- google-benchmark mode --

void BM_StreamWavefront(benchmark::State& state) {
  const auto kind = static_cast<dist::DistanceKind>(state.range(0));
  const bool use_cache = state.range(1) != 0;
  const Stream s = make_stream(kind, 16, 5);
  core::AcceleratorConfig cfg;
  cfg.backend = core::Backend::Wavefront;
  cfg.cache_capacity = use_cache ? 8 : 0;
  core::Accelerator acc(cfg);
  acc.configure(spec_for(kind));
  for (auto _ : state) {
    for (const auto& q : s.candidates) {
      benchmark::DoNotOptimize(acc.try_compute(s.p, q).unwrap());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.candidates.size()));
}
BENCHMARK(BM_StreamWavefront)
    ->Args({static_cast<long>(dist::DistanceKind::Dtw), 0})
    ->Args({static_cast<long>(dist::DistanceKind::Dtw), 1})
    ->Args({static_cast<long>(dist::DistanceKind::Manhattan), 0})
    ->Args({static_cast<long>(dist::DistanceKind::Manhattan), 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      return run_json_bench(arg.substr(7), argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
