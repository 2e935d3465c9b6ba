// Matrix-profile bench + contract check (DESIGN.md §15).
//
// --json=<path> [--n=384] [--window=24] [--k=3] runs the verification
// scenario and writes the machine-readable report (committed baseline:
// BENCH_profile.json).  For every distance kind it holds the engine to the
// brute-force oracle — an independent all-ordered-pairs double loop applying
// the documented (value, lowest-index) merge rule:
//
//  * full profile + neighbour indices bitwise, for the run without an
//    engine and for BatchEngine runs at 1, 2, 4 and 8 threads, and the five
//    cascade statistics equal across those runs (the determinism contract);
//  * profile_motif / profile_discords against the oracle's motif and
//    discords (recall is exact by construction — any drop is a mismatch);
//  * StreamingProfile replay ≡ batch bitwise, including a sliding-window
//    (stream_capacity) run with evictions;
//  * accelerator-backed DTW (Behavioral backend) identical across engine
//    thread counts.
//
// Exit code 2 on ANY mismatch, else 0.  Timings (median, min and max of
// kRepeats runs) compare the brute oracle, the serial row (the same
// diagonal-stripe pair loop as the engine, its stripes run inline), the
// engine at 1, 4 and 8 threads and the streaming replay, unweighted and
// with every pair and element weight 2 (checked against the weighted batch
// run), per kind, next to the bounds each kind ran
// (mining::profile_bounds); the report carries the host fingerprint they
// were taken on.
// Without --json it runs the google-benchmark microbenchmarks below.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "host_fingerprint.hpp"
#include "core/accelerator.hpp"
#include "core/batch_engine.hpp"
#include "data/normalize.hpp"
#include "distance/registry.hpp"
#include "mining/matrix_profile.hpp"
#include "util/rng.hpp"

using namespace mda;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Noisy two-tone series with a planted motif pair and a discord burst.
data::Series make_series(std::size_t n, std::size_t window,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  data::Series s(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    s[i] = std::sin(t * 0.21) + 0.4 * std::sin(t * 0.047) +
           rng.normal(0.0, 0.25);
  }
  // Motif: copy one window to a far position (small noise keeps it a
  // near-duplicate rather than an exact one).
  const std::size_t src = n / 8;
  const std::size_t dst = (5 * n) / 8;
  for (std::size_t i = 0; i < window && dst + i < n; ++i) {
    s[dst + i] = s[src + i] + rng.normal(0.0, 0.01);
  }
  // Discord: a burst unlike anything else.
  const std::size_t burst = (3 * n) / 8;
  for (std::size_t i = 0; i < window && burst + i < n; ++i) {
    s[burst + i] += 4.0 * ((i % 2 == 0) ? 1.0 : -1.0);
  }
  return s;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall seconds of repeated calls: the median and the run-to-run spread.
struct Timing {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Calls per timing.
constexpr std::size_t kRepeats = 5;

/// Times kRepeats calls of `run`; `out` keeps the last call's result.
template <typename Run>
Timing time_runs(Run&& run, mining::ProfileResult& out) {
  std::vector<double> t(kRepeats);
  for (double& ti : t) {
    const double t0 = now_s();
    out = run();
    ti = now_s() - t0;
  }
  std::sort(t.begin(), t.end());
  return {t[t.size() / 2], t.front(), t.back()};
}

/// Independent oracle: all ordered pairs, no bounds, no abandoning, the
/// documented (value, lowest index) merge rule applied directly.
mining::ProfileResult brute_profile(const data::Series& s, std::size_t window,
                                    dist::DistanceKind kind,
                                    const dist::DistanceParams& params) {
  const bool sim = dist::is_similarity(kind);
  const std::size_t count = s.size() - window + 1;
  std::vector<data::Series> w(count);
  for (std::size_t i = 0; i < count; ++i) {
    w[i] = data::znormalize({s.data() + i, window});
  }
  mining::ProfileResult r;
  r.window = window;
  r.exclusion = window;
  r.similarity = sim;
  r.starts.resize(count);
  std::iota(r.starts.begin(), r.starts.end(), std::size_t{0});
  r.profile.assign(count, sim ? -kInf : kInf);
  r.neighbor.assign(count, mining::kNoNeighbor);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t gap = i > j ? i - j : j - i;
      if (gap < window) continue;
      const double d = dist::compute(kind, w[i], w[j], params);
      const bool nearer = sim ? d > r.profile[i] : d < r.profile[i];
      if (nearer || (d == r.profile[i] && j < r.neighbor[i])) {
        r.profile[i] = d;
        r.neighbor[i] = j;
      }
    }
  }
  return r;
}

bool same_profile(const mining::ProfileResult& a,
                  const mining::ProfileResult& b) {
  return a.profile.size() == b.profile.size() && a.neighbor == b.neighbor &&
         a.starts == b.starts &&
         std::memcmp(a.profile.data(), b.profile.data(),
                     a.profile.size() * sizeof(double)) == 0;
}

bool same_stats(const mining::ProfileStats& a, const mining::ProfileStats& b) {
  return a.pairs == b.pairs && a.pruned_lb_kim == b.pruned_lb_kim &&
         a.pruned_lb_keogh == b.pruned_lb_keogh &&
         a.abandoned == b.abandoned && a.evaluated == b.evaluated;
}

bool same_discords(const std::vector<mining::Discord>& a,
                   const std::vector<mining::Discord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].position != b[i].position ||
        std::memcmp(&a[i].nn_distance, &b[i].nn_distance, sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

int run_json_bench(const std::string& path, int argc, char** argv) {
  const auto n =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "n", 384));
  const auto window =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "window", 24));
  const auto k =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "k", 3));
  const data::Series series = make_series(n, window, 20260809);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return 1;
  }
  bench::JsonWriter json(out);
  json.begin_object();
  json.begin_object("meta", true)
      .field("bench", "profile")
      .field("n", n)
      .field("window", window)
      .field("k", k)
      .field("repeats", kRepeats)
      .end();
  json.raw("host", bench::host_fingerprint_json());

  const auto engine_with = [](std::size_t threads) {
    core::BatchOptions o;
    o.num_threads = threads;
    return std::make_unique<core::BatchEngine>(o);
  };
  const auto engine1 = engine_with(1);
  const auto engine2 = engine_with(2);
  const auto engine4 = engine_with(4);
  const auto engine8 = engine_with(8);

  bool all_ok = true;
  json.begin_array("kinds");
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    dist::DistanceParams params;
    // Counting kinds need a non-zero equality threshold on continuous data
    // (threshold 0 never matches and every distance degenerates to a tie —
    // exercised separately by the determinism tests).
    params.threshold = 0.25;

    mining::ProfileConfig cfg;
    cfg.window = window;
    cfg.kind = kind;
    cfg.params = params;

    const double t0 = now_s();
    const mining::ProfileResult brute =
        brute_profile(series, window, kind, params);
    const double t_brute = now_s() - t0;

    const auto timed = [&](const core::BatchEngine* engine,
                           mining::ProfileResult& out) {
      cfg.engine = engine;
      return time_runs([&] { return mining::matrix_profile(series, cfg); },
                       out);
    };
    mining::ProfileResult serial, r1, r2, r4, r8;
    const Timing t_serial = timed(nullptr, serial);
    const Timing t_engine1 = timed(engine1.get(), r1);
    const Timing t_engine4 = timed(engine4.get(), r4);
    const Timing t_engine8 = timed(engine8.get(), r8);
    cfg.engine = engine2.get();
    r2 = mining::matrix_profile(series, cfg);
    cfg.engine = nullptr;

    // Streaming replay (plus a sliding-window run with evictions, checked
    // against a batch recompute of the retained series), unweighted and
    // weighted: the weights keep every bound on and make the per-pair cost
    // of the bound setup visible.
    const auto timed_stream = [&](const mining::ProfileConfig& c,
                                  mining::ProfileResult& out) {
      return time_runs(
          [&] {
            mining::StreamingProfile s(c);
            s.append(series);
            return s.profile();
          },
          out);
    };
    mining::ProfileResult streamed, wstreamed;
    const Timing t_stream = timed_stream(cfg, streamed);
    const bool stream_ok = same_profile(streamed, serial);
    mining::ProfileConfig wcfg = cfg;
    wcfg.params.pair_weights = std::vector<double>(window * window, 2.0);
    wcfg.params.elem_weights = std::vector<double>(window, 2.0);
    const Timing t_stream_weighted = timed_stream(wcfg, wstreamed);
    const bool wstream_ok =
        same_profile(wstreamed, mining::matrix_profile(series, wcfg));
    mining::ProfileConfig ccfg = cfg;
    ccfg.stream_capacity = (3 * n) / 4;
    mining::StreamingProfile capped(ccfg);
    capped.append(series);
    const bool capped_ok =
        same_profile(capped.profile(),
                     mining::matrix_profile(capped.series(), ccfg));

    const mining::MotifResult motif = mining::profile_motif(serial);
    const mining::MotifResult bmotif = mining::profile_motif(brute);
    const bool motif_ok =
        motif.first == bmotif.first && motif.second == bmotif.second &&
        std::memcmp(&motif.distance, &bmotif.distance, sizeof(double)) == 0;
    const bool discords_ok = same_discords(mining::profile_discords(serial, k),
                                           mining::profile_discords(brute, k));
    const bool brute_ok = same_profile(serial, brute);
    bool threads_ok = true;
    for (const mining::ProfileResult* r : {&r1, &r2, &r4, &r8}) {
      threads_ok = threads_ok && same_profile(*r, brute) &&
                   same_stats(r->stats, serial.stats);
    }
    const bool ok = brute_ok && threads_ok && motif_ok && discords_ok &&
                    stream_ok && wstream_ok && capped_ok;
    all_ok = all_ok && ok;

    const auto rate = [&](std::size_t c) {
      return serial.stats.pairs > 0 ? static_cast<double>(c) /
                                          static_cast<double>(serial.stats.pairs)
                                    : 0.0;
    };
    const mining::ProfileBounds bounds = mining::profile_bounds(cfg);
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    json.begin_object("", true)
        .field("kind", dist::kind_name(kind))
        .field("windows", serial.profile.size())
        .field("pairs", serial.stats.pairs)
        .field("bound_lb_kim", bounds.lb_kim)
        .field("bound_lb_keogh", bounds.lb_keogh)
        .field("bound_early_abandon", bounds.early_abandon)
        .field("pruned_lb_kim_rate", rate(serial.stats.pruned_lb_kim))
        .field("pruned_lb_keogh_rate", rate(serial.stats.pruned_lb_keogh))
        .field("abandoned_rate", rate(serial.stats.abandoned))
        .field("evaluated_rate", rate(serial.stats.evaluated))
        .field("motif_first", motif.first)
        .field("motif_second", motif.second)
        .field("top_discord", mining::profile_discords(serial, k)[0].position)
        .field("t_brute_s", t_brute);
    for (const auto& [name, t] :
         {std::pair{"serial", t_serial}, std::pair{"engine1", t_engine1},
          std::pair{"engine4", t_engine4}, std::pair{"engine8", t_engine8},
          std::pair{"stream", t_stream},
          std::pair{"stream_weighted", t_stream_weighted}}) {
      const std::string key = std::string("t_") + name;
      json.field(key + "_s", t.median)
          .field(key + "_min_s", t.min)
          .field(key + "_max_s", t.max);
    }
    json.field("engine1_vs_serial", ratio(t_serial.median, t_engine1.median))
        .field("engine4_vs_engine1", ratio(t_engine1.median, t_engine4.median))
        .field("speedup_vs_brute", ratio(t_brute, t_engine8.median))
        .field("brute_match", brute_ok)
        .field("threads_match", threads_ok)
        .field("motif_match", motif_ok)
        .field("discords_match", discords_ok)
        .field("stream_match", stream_ok)
        .field("weighted_stream_match", wstream_ok)
        .field("capacity_stream_match", capped_ok)
        .end();
    std::printf("%-5s %4zu windows  prune %.1f%%  brute %s  threads %s  "
                "stream %s\n",
                dist::kind_name(kind).c_str(), serial.profile.size(),
                100.0 * (rate(serial.stats.pruned_lb_kim) +
                         rate(serial.stats.pruned_lb_keogh) +
                         rate(serial.stats.abandoned)),
                brute_ok ? "ok" : "MISMATCH",
                threads_ok ? "ok" : "MISMATCH",
                (stream_ok && wstream_ok && capped_ok) ? "ok" : "MISMATCH");
  }
  json.end();  // kinds

  // Accelerator-backed DTW (Behavioral backend) through the unified
  // QueryRequest path: engine runs at 2 and 8 threads must agree with the
  // run without an engine bitwise, statistics included.
  {
    const std::size_t an = std::min<std::size_t>(n, 128);
    const std::size_t aw = std::min<std::size_t>(window, 16);
    const data::Series aseries = make_series(an, aw, 7);
    core::DistanceSpec spec;
    spec.kind = dist::DistanceKind::Dtw;
    spec.band = 4;
    core::Accelerator acc;
    acc.configure(spec, core::Backend::Behavioral);
    mining::ProfileConfig cfg;
    cfg.window = aw;
    cfg.kind = spec.kind;
    cfg.params.band = spec.band;
    cfg.accelerator = &acc;
    cfg.lb_margin = 1.5;  // bounds hold for the digital reference only
    const mining::ProfileResult serial = mining::matrix_profile(aseries, cfg);
    cfg.engine = engine2.get();
    const mining::ProfileResult r2 = mining::matrix_profile(aseries, cfg);
    cfg.engine = engine8.get();
    const mining::ProfileResult r8 = mining::matrix_profile(aseries, cfg);
    const bool accel_ok = same_profile(r2, r8) && same_profile(r2, serial) &&
                          same_stats(r2.stats, serial.stats) &&
                          same_stats(r8.stats, serial.stats);
    all_ok = all_ok && accel_ok;
    json.begin_object("accelerator", true)
        .field("backend", "behavioral")
        .field("windows", serial.profile.size())
        .field("pairs", serial.stats.pairs)
        .field("threads_match", accel_ok)
        .end();
    std::printf("accel %4zu windows  threads %s\n", serial.profile.size(),
                accel_ok ? "ok" : "MISMATCH");
  }

  json.field("all_match", all_ok);
  json.end();
  std::printf("%s -> %s\n", all_ok ? "all contracts hold" : "MISMATCH",
              path.c_str());
  return all_ok ? 0 : 2;
}

void BM_ProfileCascade(benchmark::State& state) {
  const data::Series s = make_series(256, 24, 11);
  mining::ProfileConfig cfg;
  cfg.window = 24;
  cfg.use_lower_bounds = state.range(0) != 0;
  cfg.early_abandon = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::matrix_profile(s, cfg));
  }
}
BENCHMARK(BM_ProfileCascade)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ProfileStreamingAppend(benchmark::State& state) {
  const data::Series s = make_series(256, 24, 12);
  for (auto _ : state) {
    mining::ProfileConfig cfg;
    cfg.window = 24;
    mining::StreamingProfile stream(cfg);
    stream.append(s);
    benchmark::DoNotOptimize(stream.profile());
  }
}
BENCHMARK(BM_ProfileStreamingAppend)->Unit(benchmark::kMillisecond);

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
