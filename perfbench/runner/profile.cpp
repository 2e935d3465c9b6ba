// profile_selfjoin: a closed-loop batch job.  Matrix-profile self-join of
// one long series (the planted-motif/discord generator of bench_profile)
// for all six kinds on the digital kernels, cascade and early abandon at
// their defaults, through a BatchEngine; then a small AB-join through a
// Behavioral accelerator.  One pass is the fixed timed unit.
//
// Traced run: spans around every matrix_profile call, a timed sample of
// digital kernel calls (distance.kernel_ns) and an encode -> eval_behavioral
// -> decode replay of AB-join pairs, checked bitwise against try_compute.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/batch_engine.hpp"
#include "data/normalize.hpp"
#include "distance/registry.hpp"
#include "mining/matrix_profile.hpp"
#include "util/rng.hpp"

namespace pb {
namespace {

using namespace mda;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sizes of one run.  Full: a pass is six self-joins of a 1024-point series
/// plus a 96 x 96-point AB-join, about 4 s serially on a 4-vCPU Xeon virtual
/// machine, so a 25 s run takes the median of about 6 passes (a 1536-point
/// pass took 9 s, and the slowest of 2-3 such passes spread 0.21 across
/// seeds), and setup_s the median of about 37 set-ups (10-15 ms each).
/// Tiny: the self-test.
struct Sizes {
  std::size_t n;  ///< Self-join series length.
  std::size_t window;
  std::size_t ab_n;  ///< Length of each AB-join series.
  std::size_t ab_window;
  std::size_t setups_per_pass;  ///< Throwaway set-ups timed after a pass.
  std::size_t min_passes;
  std::size_t max_passes;
};
constexpr Sizes kFull{.n = 1024, .window = 24, .ab_n = 96, .ab_window = 16,
                      .setups_per_pass = 6, .min_passes = 3, .max_passes = 200};
constexpr Sizes kTiny{.n = 96, .window = 8, .ab_n = 24, .ab_window = 6,
                      .setups_per_pass = 0, .min_passes = 1, .max_passes = 1};

/// Engine threads.  At 4 threads the engine meets every worker at a barrier
/// each 256 pairs, and CPU steal on a shared host then swings the pass time
/// 2-3x; serially the spread is host noise only (NOTES.md).
constexpr std::size_t kThreads = 1;
/// Sigma of the seeded perturbation.
constexpr double kJitter = 0.02;
/// Equality threshold of the counting kinds on continuous data.
constexpr double kThreshold = 0.25;
/// Rows per kind checked against a brute-force scan.
constexpr std::size_t kCheckRows = 4;
/// AB-join pairs re-solved for rel_error_mean / hw_settle_ns.
constexpr std::size_t kAccuracyPairs = 64;
/// Window pairs in the distance.kernel_ns sample.
constexpr std::size_t kKernelPairs = 256;
/// AB-join pairs in the Behavioral replay.
constexpr std::size_t kReplayPairs = 64;

/// Noisy two-tone series with a planted motif pair and a discord burst —
/// the generator of bench/bench_profile.cpp, so both benches profile the
/// same kind of signal.
data::Series make_series(std::size_t n, std::size_t window,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  data::Series s(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    s[i] = std::sin(t * 0.21) + 0.4 * std::sin(t * 0.047) +
           rng.normal(0.0, 0.25);
  }
  const std::size_t src = n / 8;
  const std::size_t dst = (5 * n) / 8;
  for (std::size_t i = 0; i < window && dst + i < n; ++i) {
    s[dst + i] = s[src + i] + rng.normal(0.0, 0.01);
  }
  const std::size_t burst = (3 * n) / 8;
  for (std::size_t i = 0; i < window && burst + i < n; ++i) {
    s[burst + i] += 4.0 * ((i % 2 == 0) ? 1.0 : -1.0);
  }
  return s;
}

std::vector<data::Series> windows_of(const data::Series& s,
                                     std::size_t window) {
  std::vector<data::Series> w;
  for (std::size_t i = 0; i + window <= s.size(); ++i) {
    w.push_back(data::znormalize({s.data() + i, window}));
  }
  return w;
}

bool same_profile(const mining::ProfileResult& a,
                  const mining::ProfileResult& b) {
  return a.profile.size() == b.profile.size() && a.neighbor == b.neighbor &&
         std::memcmp(a.profile.data(), b.profile.data(),
                     a.profile.size() * sizeof(double)) == 0;
}

/// Row i of a profile by exhaustive scan: no bounds, no abandoning, the
/// documented (value, lowest index) merge rule.  `eval(i, j)` is the kernel.
template <typename Eval>
bool row_matches(const mining::ProfileResult& r, std::size_t i,
                 std::size_t candidates, std::size_t exclusion, Eval&& eval) {
  double best = r.similarity ? -kInf : kInf;
  std::size_t nn = mining::kNoNeighbor;
  for (std::size_t j = 0; j < candidates; ++j) {
    const std::size_t gap = i > j ? i - j : j - i;
    if (exclusion > 0 && gap < exclusion) continue;
    const double d = eval(i, j);
    const bool nearer = r.similarity ? d > best : d < best;
    if (nearer || (d == best && j < nn)) {
      best = d;
      nn = j;
    }
  }
  return same_bits(best, r.profile[i]) && nn == r.neighbor[i];
}

struct PassResult {
  std::vector<mining::ProfileResult> self;  ///< One per kind.
  mining::ProfileResult ab;
};

}  // namespace

int run_profile(const Args& args, Tracer& tracer, Report& rep) {
  zero_fill_layers(rep);
  const Sizes& z = args.tiny ? kTiny : kFull;
  const std::size_t n = z.n;
  const std::size_t window = z.window;
  const std::size_t ab_n = z.ab_n;
  const std::size_t ab_window = z.ab_window;
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(kThreads, std::thread::hardware_concurrency()));
  // Fixed base series plus a seeded perturbation of every point: the seed
  // changes every value, not the signal's structure (see knn.cpp).
  util::Rng rng(args.seed);
  const auto perturbed = [&](data::Series s) {
    for (double& v : s) v += rng.normal(0.0, kJitter);
    return s;
  };
  const data::Series series = perturbed(make_series(n, window, 20260809));
  const data::Series series_a = perturbed(make_series(ab_n, ab_window, 7));
  const data::Series series_b = perturbed(make_series(ab_n, ab_window, 8));
  const std::size_t nkinds = std::size(dist::kAllKinds);

  core::DistanceSpec ab_spec;
  ab_spec.kind = dist::DistanceKind::Dtw;
  ab_spec.band = 4;
  const std::vector<data::Series> wa = windows_of(series_a, ab_window);
  const std::vector<data::Series> wb = windows_of(series_b, ab_window);

  // ---- set-up: engine + Behavioral accelerator + one warm query.
  struct Stack {
    std::unique_ptr<core::BatchEngine> engine;
    std::unique_ptr<core::Accelerator> acc;
  };
  const auto make_stack = [&] {
    Stack st;
    core::BatchOptions opts;
    opts.num_threads = threads;
    st.engine = std::make_unique<core::BatchEngine>(opts);
    st.acc = std::make_unique<core::Accelerator>();
    st.acc->configure(ab_spec, core::Backend::Behavioral);
    if (!st.acc->try_compute(wa.front(), wb.front()).ok()) {
      throw std::runtime_error("profile: warm query failed");
    }
    // One warm query per kind: a self-join of a short prefix.
    const data::Series prefix(series.begin(),
                              series.begin() + std::min(series.size(), 4 * window));
    for (const dist::DistanceKind kind : dist::kAllKinds) {
      mining::ProfileConfig cfg;
      cfg.window = window;
      cfg.kind = kind;
      cfg.params.threshold = kThreshold;
      cfg.engine = st.engine.get();
      (void)mining::matrix_profile(prefix, cfg);
    }
    return st;
  };
  const Stack st = timed_setup(rep, make_stack);
  const core::BatchEngine* const engine = st.engine.get();
  const core::Accelerator* const acc = st.acc.get();

  const auto self_cfg = [&](dist::DistanceKind kind) {
    mining::ProfileConfig cfg;
    cfg.window = window;
    cfg.kind = kind;
    cfg.params.threshold = kThreshold;
    cfg.engine = engine;
    return cfg;
  };
  mining::ProfileConfig ab_cfg;
  ab_cfg.window = ab_window;
  ab_cfg.kind = ab_spec.kind;
  ab_cfg.params.band = ab_spec.band;
  ab_cfg.accelerator = acc;
  ab_cfg.lb_margin = 1.5;  // bounds hold for the digital reference only
  ab_cfg.engine = engine;

  // Spans are recorded only when `parent` >= 0 (the traced pass).
  Tracer off(false);
  const auto run_pass = [&](std::int64_t parent, std::vector<double>* call_s) {
    Tracer& t = parent >= 0 ? tracer : off;
    PassResult out;
    for (std::size_t k = 0; k < nkinds; ++k) {
      const dist::DistanceKind kind = dist::kAllKinds[k];
      const double t0 = now_s();
      {
        ScopedSpan s(t, "matrix_profile.call", parent, k);
        out.self.push_back(mining::matrix_profile(series, self_cfg(kind)));
      }
      if (call_s != nullptr) (*call_s)[k] += now_s() - t0;
    }
    ScopedSpan s(t, "accelerator.ab_join", parent, nkinds);
    out.ab = mining::matrix_profile_join(series_a, series_b, ab_cfg);
    return out;
  };

  // ---- timed passes.
  PassResult first;
  std::vector<double> pass_s;
  bool identical = true;
  const std::size_t min_passes = z.min_passes;
  const std::size_t max_passes = args.trace ? 1 : z.max_passes;
  const Counters c0 = Counters::capture();
  Counters c1 = c0;
  const double t_begin = now_s();
  while (pass_s.size() < max_passes &&
         (pass_s.size() < min_passes || now_s() - t_begin < args.seconds)) {
    const double t0 = now_s();
    PassResult r = run_pass(-1, nullptr);
    pass_s.push_back(now_s() - t0);
    if (pass_s.size() == 1) {
      first = std::move(r);
      c1 = Counters::capture();
    } else {
      for (std::size_t k = 0; k < nkinds; ++k) {
        identical = identical && same_profile(first.self[k], r.self[k]);
      }
      identical = identical && same_profile(first.ab, r.ab);
    }
    for (std::size_t i = 0; i < z.setups_per_pass; ++i) {
      (void)timed_setup(rep, make_stack);
    }
  }
  rep.gate("passes_bitwise_identical", identical);

  // ---- gate: seeded sample rows equal a per-row brute-force scan.
  std::uint64_t mismatched = 0;
  std::uint64_t checked = 0;
  {
    util::Rng rng(args.seed + 77);
    const std::size_t rows = kCheckRows;
    const std::vector<data::Series> w = windows_of(series, window);
    for (std::size_t k = 0; k < nkinds; ++k) {
      const dist::DistanceKind kind = dist::kAllKinds[k];
      dist::DistanceParams params;
      params.threshold = kThreshold;
      const mining::ProfileResult& r = first.self[k];
      for (std::size_t s = 0; s < rows; ++s) {
        const std::size_t i = rng.index(w.size());
        ++checked;
        if (!row_matches(r, i, w.size(), r.exclusion,
                         [&](std::size_t a, std::size_t b) {
                           return dist::compute(kind, w[a], w[b], params);
                         })) {
          ++mismatched;
        }
      }
    }
    // AB-join rows against a brute scan through the same accelerator.
    for (std::size_t s = 0; s < rows; ++s) {
      const std::size_t i = rng.index(wa.size());
      ++checked;
      if (!row_matches(first.ab, i, wb.size(), 0,
                       [&](std::size_t a, std::size_t b) {
                         return acc->try_compute(wa[a], wb[b]).unwrap().value;
                       })) {
        ++mismatched;
      }
    }
    rep.gate("sample_rows_equal_brute_force", mismatched == 0);
  }

  // ---- accuracy of the accelerator-backed AB-join (evaluated pairs).
  std::vector<double> errs;
  std::vector<double> settle;
  {
    util::Rng rng(args.seed + 5);
    for (std::size_t s = 0; s < kAccuracyPairs; ++s) {
      const core::ComputeOutcome o =
          acc->try_compute(wa[rng.index(wa.size())], wb[rng.index(wb.size())]);
      if (o.ok()) {
        errs.push_back(o.value().relative_error);
        settle.push_back(o.value().convergence_time_s);
      }
    }
  }

  std::uint64_t pairs_per_pass = 0;
  for (const auto& r : first.self) pairs_per_pass += r.stats.pairs;
  pairs_per_pass += first.ab.stats.pairs;
  rep.attempted = pairs_per_pass * pass_s.size() + checked;
  rep.failed = mismatched + (identical ? 0 : 1);

  const double wall = median(pass_s);
  rep.samples["wall_s"] = pass_s;
  rep.metrics["wall_s"] = wall;
  rep.metrics["throughput_qps"] = static_cast<double>(pairs_per_pass) / wall;
  std::vector<double> pass_ms;
  for (const double s : pass_s) pass_ms.push_back(s * 1e3);
  rep.metrics["latency_p50_ms"] = median(pass_ms);
  rep.metrics["latency_p99_ms"] = percentile(pass_ms, 0.99);
  rep.info["latency_samples"] = static_cast<double>(pass_ms.size());
  rep.info["pairs_per_pass"] = static_cast<double>(pairs_per_pass);
  rep.metrics["accelerator.rel_error_mean"] = mean(errs);
  rep.metrics["accelerator.hw_settle_ns"] = mean(settle) * 1e9;
  rep.metrics["failed_ratio"] =
      static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);

  // Per-layer counts of one pass.
  const char* const mp[] = {"pairs", "pruned_lb_kim", "pruned_lb_keogh",
                            "abandoned", "evaluated"};
  for (const char* m : mp) {
    rep.metrics[std::string("matrix_profile.") + m] =
        delta(c0, c1, std::string("mda.mining.profile.") + m);
  }
  const double pairs = rep.metrics["matrix_profile.pairs"];
  rep.metrics["matrix_profile.prune_ratio"] =
      pairs > 0 ? (rep.metrics["matrix_profile.pruned_lb_kim"] +
                   rep.metrics["matrix_profile.pruned_lb_keogh"] +
                   rep.metrics["matrix_profile.abandoned"]) /
                      pairs
                : 0.0;
  rep.metrics["batch_engine.tasks"] = delta(c0, c1, "mda.batch.tasks");
  rep.metrics["batch_engine.lockstep_groups"] =
      delta(c0, c1, "mda.batch.lockstep_groups");

  if (!args.trace) return 0;

  // ================= traced run. ==========================================
  std::vector<double> call_s(nkinds, 0.0);
  const Counters t0c = Counters::capture();
  std::int64_t root = -1;
  const double t_traced = now_s();
  {
    ScopedSpan pass(tracer, "pass", -1);
    root = pass.id();
    const PassResult r = run_pass(pass.id(), &call_s);
    bool same = same_profile(r.ab, first.ab);
    for (std::size_t k = 0; k < nkinds; ++k) {
      same = same && same_profile(r.self[k], first.self[k]);
    }
    rep.gate("traced_pass_equals_untraced", same);
  }
  const double traced_wall = now_s() - t_traced;
  const Counters t1c = Counters::capture();
  const std::vector<Span> spans = tracer.spans();
  double engine_s = 0.0;
  for (std::size_t k = 0; k < nkinds; ++k) {
    const std::string kname = dist::kind_name(dist::kAllKinds[k]);
    rep.metrics["matrix_profile.call_s." + kname] = call_s[k];
    engine_s += call_s[k];
  }
  engine_s += span_total(spans, "accelerator.ab_join");
  engine_layer(t0c, t1c, threads, engine_s, rep);
  // Layer self times in wall-clock seconds of the traced pass.  The engine
  // runs inline (one thread) and distance kernels run inside matrix_profile,
  // so neither has a span of its own: matrix_profile's self time holds both.
  const std::map<std::string, double> pass_attr = attribute(spans, root);
  const auto attr = [&](const std::string& name) {
    const auto it = pass_attr.find(name);
    return it == pass_attr.end() ? 0.0 : it->second;
  };
  rep.info["layer_self_s.matrix_profile"] = attr("matrix_profile.call");
  rep.info["layer_self_s.accelerator"] = attr("accelerator.ab_join");
  rep.info["layer_self_s.outside_layers"] = attr("<root>");
  rep.metrics["trace.coverage"] =
      (attr("matrix_profile.call") + attr("accelerator.ab_join")) / wall;
  rep.metrics["trace.overhead_ratio"] = traced_wall / wall;

  // Digital kernel cost over a seeded sample of window pairs.
  {
    const std::vector<data::Series> w = windows_of(series, window);
    util::Rng rng(args.seed + 11);
    std::vector<std::pair<std::size_t, std::size_t>> sample;
    for (std::size_t s = 0; s < kKernelPairs; ++s) {
      sample.emplace_back(rng.index(w.size()), rng.index(w.size()));
    }
    dist::DistanceParams params;
    params.threshold = kThreshold;
    for (const dist::DistanceKind kind : dist::kAllKinds) {
      double sink = 0.0;
      std::size_t calls = 0;
      const double t0 = now_s();
      do {
        for (const auto& [a, b] : sample) {
          sink += dist::compute(kind, w[a], w[b], params);
        }
        calls += sample.size();
      } while (now_s() - t0 < 0.02);
      const double ns = (now_s() - t0) / static_cast<double>(calls) * 1e9;
      rep.metrics["distance.kernel_ns." + dist::kind_name(kind)] = ns;
      rep.info["distance.checksum." + dist::kind_name(kind)] = sink;
    }
  }

  // Behavioral replay: encode -> eval_behavioral -> decode, bitwise against
  // try_compute on the same pairs.
  {
    util::Rng rng(args.seed + 13);
    bool same = true;
    std::int64_t replay = tracer.begin("replay", -1);
    for (std::size_t s = 0; s < kReplayPairs; ++s) {
      const auto& p = wa[rng.index(wa.size())];
      const auto& q = wb[rng.index(wb.size())];
      const core::ComputeOutcome want = acc->try_compute(p, q);
      core::EncodedInputs enc;
      {
        ScopedSpan sp(tracer, "backend.encode", replay, s);
        enc = core::encode_inputs(acc->config(), acc->spec(), p, q);
      }
      core::AnalogEval e;
      {
        ScopedSpan sp(tracer, "backend.behavioral", replay, s);
        e = core::eval_behavioral(acc->config(), acc->spec(), enc);
      }
      double v = 0.0;
      {
        ScopedSpan sp(tracer, "backend.decode", replay, s);
        v = core::decode_output(acc->config(), acc->spec(), e.out_volts, enc);
      }
      same = same && e.ok && want.ok() && same_bits(v, want.value().value);
    }
    tracer.end(replay);
    rep.gate("replay_equals_try_compute", same);
    rep.attempted += kReplayPairs;
    if (!same) ++rep.failed;
    const std::vector<Span> all = tracer.spans();
    rep.metrics["backend.behavioral_us_per_query"] =
        mean_span(all, "backend.behavioral") * 1e6;
    rep.metrics["backend.encode_us"] = mean_span(all, "backend.encode") * 1e6;
  }
  return 0;
}

}  // namespace pb
