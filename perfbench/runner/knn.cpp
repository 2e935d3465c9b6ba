// knn_fullspice: a closed-loop batch job.  For each of the six kinds, every
// probe is scored against a labelled training set through
// BatchEngine::try_compute_batch on FullSpice accelerators (default lockstep
// width), and the benchmark takes the 1-NN label itself.  One pass is the
// fixed timed unit; passes repeat identical work until the run time is
// used up, so their spread is host noise only.
//
// Traced run: the pass is repeated outside-in — the engine's fixed index
// groups are submitted with BatchEngine::parallel_for around
// Accelerator::try_compute_lockstep (accelerator spans).  Then, on every
// group, the lockstep call and its replay through encode_inputs ->
// eval_full_spice_batch -> decode_output (backend spans) run back to back on
// the same worker; the replay is checked bitwise against the lockstep
// outcomes, and the per-group difference splits the lockstep time into the
// accelerator's own time and the backend's.

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench_common.hpp"
#include "common.hpp"
#include "core/accelerator.hpp"
#include "core/array_cache.hpp"
#include "core/backend.hpp"
#include "core/batch_engine.hpp"
#include "distance/registry.hpp"

namespace pb {
namespace {

using namespace mda;

/// Sizes of one run.  Full: a pass is 4 probes x 8 training series x six
/// kinds = 192 FullSpice queries, about 8 s at 4 threads on a 4-vCPU Xeon
/// virtual machine; with the set-ups between passes a 25 s run makes 3
/// passes and 10 set-ups (about 0.8 s each).  With the
/// default lockstep width of 8 and 8 training series, each lockstep group is
/// one probe's 1-NN scan.  Tiny: the self-test.
struct Sizes {
  std::size_t probes;
  std::size_t train;
  std::size_t setups_per_pass;  ///< Throwaway set-ups timed after a pass.
  std::size_t min_passes;
  std::size_t max_passes;
};
constexpr Sizes kFull{.probes = 4, .train = 8, .setups_per_pass = 3,
                      .min_passes = 3, .max_passes = 50};
constexpr Sizes kTiny{.probes = 1, .train = 2, .setups_per_pass = 0,
                      .min_passes = 1, .max_passes = 1};

/// Series length after resampling: FullSpice cost grows steeply with it.
constexpr std::size_t kLength = 4;
/// Engine threads (at most nproc).
constexpr std::size_t kThreads = 4;
/// Sigma of the seeded perturbation, in z-normalised units.
constexpr double kJitter = 0.02;
/// Queries per kind re-solved on the scalar path by the correctness gate; a
/// scalar FullSpice solve costs about as much as a lockstep group.
constexpr std::size_t kCheckSamples = 1;

core::DistanceSpec spec_for(dist::DistanceKind kind) {
  core::DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.3;  // LCS/EdD/HamD equality threshold (value units)
  return spec;
}

struct Inputs {
  /// Unperturbed first probe and training series: the set-up's warm query,
  /// so set-up does the same work on every seed.
  data::Series warm_p;
  data::Series warm_q;
  std::vector<data::Series> probes;
  std::vector<int> probe_labels;
  std::vector<data::Series> train;
  std::vector<int> train_labels;
};

/// Fixed base set — the UCR Symbols surrogate resampled to `length`, with a
/// fixed draw of training series and probes — plus a seeded Gaussian
/// perturbation of every value.  The seed changes every input value but not
/// the workload's composition, so runs on different seeds cost about the
/// same and stay comparable within the benchmark's bounds.
Inputs make_inputs(std::uint64_t seed, std::size_t probes, std::size_t train) {
  const data::Dataset ds = bench::load_dataset("Symbols", kLength, 7);
  std::vector<std::size_t> idx(ds.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  util::Rng pick(2017);
  for (std::size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[pick.index(i)]);
  }
  if (probes + train > idx.size()) {
    throw std::runtime_error("knn: dataset too small for the requested sizes");
  }
  Inputs in;
  for (std::size_t i = 0; i < train; ++i) {
    in.train.push_back(ds.items[idx[i]].values);
    in.train_labels.push_back(ds.items[idx[i]].label);
  }
  for (std::size_t i = train; i < train + probes; ++i) {
    in.probes.push_back(ds.items[idx[i]].values);
    in.probe_labels.push_back(ds.items[idx[i]].label);
  }
  in.warm_p = in.probes.front();
  in.warm_q = in.train.front();
  util::Rng rng(seed);
  for (auto* set : {&in.train, &in.probes}) {
    for (data::Series& s : *set) {
      for (double& v : s) v += rng.normal(0.0, kJitter);
    }
  }
  return in;
}

/// Index of the nearest training series (largest value for similarity
/// kinds); ties go to the lowest index.
std::size_t nearest(const std::vector<double>& scores, bool similarity) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (similarity ? scores[i] > scores[best] : scores[i] < scores[best]) {
      best = i;
    }
  }
  return best;
}

struct Stack {
  std::unique_ptr<core::BatchEngine> engine;
  std::vector<std::unique_ptr<core::Accelerator>> accs;  ///< One per kind.
};

using Outcomes = std::vector<core::ComputeOutcome>;

bool same_outcomes(const Outcomes& a, const Outcomes& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ok() != b[i].ok()) return false;
    if (a[i].ok() && !core::bitwise_equal(a[i].value(), b[i].value())) {
      return false;
    }
  }
  return true;
}

}  // namespace

int run_knn(const Args& args, Tracer& tracer, Report& rep) {
  zero_fill_layers(rep);
  const Sizes& z = args.tiny ? kTiny : kFull;
  const std::size_t nprobes = z.probes;
  const std::size_t ntrain = z.train;
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(kThreads, std::thread::hardware_concurrency()));
  const Inputs in = make_inputs(args.seed, nprobes, ntrain);

  // Probe-major query list per kind.
  std::vector<core::QueryRequest> queries;
  for (const auto& p : in.probes) {
    for (const auto& t : in.train) queries.push_back({p, t});
  }
  const std::size_t nkinds = std::size(dist::kAllKinds);

  // ---- set-up: engine + six configured accelerators + one cold query per
  // config (instance cache fill, first LU factorisation).
  std::vector<double> cold_ms;
  const auto make_stack = [&] {
    Stack st;
    core::BatchOptions opts;
    opts.num_threads = threads;
    st.engine = std::make_unique<core::BatchEngine>(opts);
    for (std::size_t k = 0; k < nkinds; ++k) {
      core::AcceleratorConfig cfg;
      cfg.backend = core::Backend::FullSpice;
      auto acc = std::make_unique<core::Accelerator>(cfg);
      acc->configure(spec_for(dist::kAllKinds[k]));
      const double t0 = now_s();
      const core::ComputeOutcome warm = acc->try_compute(in.warm_p, in.warm_q);
      cold_ms.push_back((now_s() - t0) * 1e3);
      if (!warm.ok()) throw std::runtime_error("knn: warm query failed");
      st.accs.push_back(std::move(acc));
    }
    return st;
  };
  const Stack st = timed_setup(rep, make_stack);

  const auto run_pass = [&](std::vector<Outcomes>& out) {
    out.clear();
    for (std::size_t k = 0; k < nkinds; ++k) {
      out.push_back(st.engine->try_compute_batch(*st.accs[k], queries));
    }
  };

  // ---- timed passes (identical work each time).
  std::vector<Outcomes> first;
  std::vector<double> pass_s;
  bool passes_identical = true;
  const std::size_t min_passes = z.min_passes;
  // The traced run makes two untraced passes: per-layer counts come from the
  // second, so they describe a warm instance cache.
  const std::size_t max_passes =
      args.trace ? std::min<std::size_t>(2, z.max_passes) : z.max_passes;
  Counters c0 = Counters::capture();
  Counters c1 = c0;
  const double t_begin = now_s();
  while (pass_s.size() < max_passes &&
         (pass_s.size() < min_passes || now_s() - t_begin < args.seconds)) {
    std::vector<Outcomes> outs;
    const Counters before = Counters::capture();
    const double t0 = now_s();
    run_pass(outs);
    pass_s.push_back(now_s() - t0);
    c0 = before;
    c1 = Counters::capture();
    for (std::size_t i = 0; i < z.setups_per_pass; ++i) {
      (void)timed_setup(rep, make_stack);
    }
    if (first.empty()) {
      first = std::move(outs);
    } else {
      for (std::size_t k = 0; k < nkinds; ++k) {
        passes_identical = passes_identical && same_outcomes(first[k], outs[k]);
      }
    }
  }
  rep.gate("passes_bitwise_identical", passes_identical);

  // ---- outcome checks, accuracy and 1-NN labels (first pass).
  std::uint64_t not_ok = 0;
  double err_sum = 0.0;
  double settle_sum = 0.0;
  std::size_t agree = 0;
  for (std::size_t k = 0; k < nkinds; ++k) {
    const dist::DistanceKind kind = dist::kAllKinds[k];
    const dist::DistanceParams ref = spec_for(kind).reference_params();
    const bool sim = dist::is_similarity(kind);
    for (std::size_t p = 0; p < nprobes; ++p) {
      std::vector<double> analog(ntrain);
      std::vector<double> digital(ntrain);
      for (std::size_t t = 0; t < ntrain; ++t) {
        const core::ComputeOutcome& o = first[k][p * ntrain + t];
        if (!o.ok()) {
          ++not_ok;
          analog[t] = sim ? -1e300 : 1e300;
        } else {
          analog[t] = o.value().value;
          err_sum += o.value().relative_error;
          settle_sum += o.value().convergence_time_s;
        }
        digital[t] = dist::compute(kind, in.probes[p], in.train[t], ref);
      }
      if (in.train_labels[nearest(analog, sim)] ==
          in.train_labels[nearest(digital, sim)]) {
        ++agree;
      }
    }
  }
  rep.gate("all_outcomes_ok", not_ok == 0);
  const std::size_t nq = queries.size() * nkinds;
  const double ok_q = static_cast<double>(nq - not_ok);

  // ---- gate: a seeded sample of outcomes equals the scalar try_compute
  // path on a fresh accelerator (cached + lockstep == fresh + scalar).
  std::uint64_t mismatched = 0;
  {
    util::Rng rng(args.seed + 99);
    const std::size_t per_kind = kCheckSamples;
    for (std::size_t k = 0; k < nkinds; ++k) {
      core::AcceleratorConfig cfg;
      cfg.backend = core::Backend::FullSpice;
      core::Accelerator fresh(cfg);
      fresh.configure(spec_for(dist::kAllKinds[k]));
      for (std::size_t s = 0; s < per_kind; ++s) {
        const std::size_t i = rng.index(queries.size());
        const core::ComputeOutcome want = fresh.try_compute(queries[i]);
        const bool same = want.ok() && first[k][i].ok() &&
                          core::bitwise_equal(want.value(), first[k][i].value());
        if (!same) ++mismatched;
      }
      rep.attempted += per_kind;
    }
    rep.gate("sample_equals_scalar_path", mismatched == 0);
  }

  rep.attempted += nq * pass_s.size();
  rep.failed += not_ok * pass_s.size() + mismatched;

  const double wall = median(pass_s);
  rep.samples["wall_s"] = pass_s;
  rep.metrics["wall_s"] = wall;
  rep.metrics["throughput_qps"] = static_cast<double>(nq) / wall;
  std::vector<double> pass_ms;
  for (const double s : pass_s) pass_ms.push_back(s * 1e3);
  rep.metrics["latency_p50_ms"] = median(pass_ms);
  rep.metrics["latency_p99_ms"] = percentile(pass_ms, 0.99);
  rep.info["latency_samples"] = static_cast<double>(pass_ms.size());
  rep.info["queries_per_pass"] = static_cast<double>(nq);
  rep.metrics["accelerator.rel_error_mean"] = ok_q > 0 ? err_sum / ok_q : 0.0;
  rep.metrics["accelerator.hw_settle_ns"] =
      ok_q > 0 ? settle_sum / ok_q * 1e9 : 0.0;
  rep.metrics["accelerator.knn_label_agreement"] =
      static_cast<double>(agree) / static_cast<double>(nprobes * nkinds);
  rep.metrics["failed_ratio"] =
      static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);

  // Per-layer counts of one pass (the last; quiescent around it).
  rep.metrics["batch_engine.lockstep_groups"] =
      delta(c0, c1, "mda.batch.lockstep_groups");
  rep.metrics["batch_engine.tasks"] = delta(c0, c1, "mda.batch.tasks");
  cache_layer(c0, c1, rep);
  double bytes = 0.0;
  for (const auto& acc : st.accs) {
    bytes += static_cast<double>(
        acc->config().array_cache->stats().resident_bytes);
  }
  rep.metrics["array_cache.bytes"] = bytes;
  rep.metrics["array_cache.cold_query_ms"] = mean(cold_ms);
  spice_layer(c0, c1, rep);

  if (!args.trace) return 0;

  // ================= traced run: outside-in spans over the same pass. =====
  {
    std::vector<double> warm_ms;
    for (std::size_t k = 0; k < nkinds; ++k) {
      const double t0 = now_s();
      (void)st.accs[k]->try_compute(in.warm_p, in.warm_q);
      warm_ms.push_back((now_s() - t0) * 1e3);
    }
    rep.metrics["array_cache.warm_query_ms"] = mean(warm_ms);
  }

  const std::size_t width = st.engine->options().solver_batch_width;
  const std::size_t ngroups = (queries.size() + width - 1) / width;
  const std::span<const core::QueryRequest> all(queries);
  const auto group = [&](std::size_t g) {
    const std::size_t begin = g * width;
    return all.subspan(begin, std::min(queries.size(), begin + width) - begin);
  };
  const auto request_id = [](std::size_t k, std::size_t g) {
    return static_cast<std::uint64_t>(k * 1000 + g);
  };

  // Traced pass: the engine's fixed index groups through parallel_for around
  // try_compute_lockstep.
  std::vector<Outcomes> traced(nkinds);
  const Counters t0c = Counters::capture();
  const double t_traced = now_s();
  std::int64_t root = -1;
  {
    ScopedSpan pass(tracer, "pass", -1);
    root = pass.id();
    for (std::size_t k = 0; k < nkinds; ++k) {
      std::vector<std::optional<Outcomes>> groups(ngroups);
      {
        ScopedSpan call(tracer, "batch_engine.call", pass.id(), k);
        st.engine->parallel_for(ngroups, [&](std::size_t g) {
          ScopedSpan span(tracer, "accelerator.lockstep", call.id(),
                          request_id(k, g));
          groups[g] = st.accs[k]->try_compute_lockstep(group(g));
        });
      }
      for (auto& g : groups) {
        for (auto& o : *g) traced[k].push_back(std::move(o));
      }
    }
  }
  const double traced_wall = now_s() - t_traced;
  const Counters t1c = Counters::capture();
  bool traced_same = true;
  for (std::size_t k = 0; k < nkinds; ++k) {
    traced_same = traced_same && same_outcomes(traced[k], first[k]);
  }
  rep.gate("lockstep_groups_equal_batch", traced_same);

  const std::vector<Span> pass_spans = tracer.spans();
  const std::map<std::string, double> pass_attr = attribute(pass_spans, root);
  const auto attr = [&](const std::string& n) {
    const auto it = pass_attr.find(n);
    return it == pass_attr.end() ? 0.0 : it->second;
  };
  engine_layer(t0c, t1c, threads, span_total(pass_spans, "batch_engine.call"),
               rep);
  rep.metrics["accelerator.lockstep_call_ms"] =
      mean_span(pass_spans, "accelerator.lockstep") * 1e3;

  // Paired replay: on every group, try_compute_lockstep and the replay
  // encode -> eval_full_spice_batch -> decode run back to back on the same
  // worker, in alternating order so warm-cache effects cancel.  Every lane
  // must equal the traced pass bitwise (value, volts, settling time).
  std::vector<char> group_ok(nkinds * ngroups, 1);
  std::vector<double> group_newton(nkinds * ngroups, 0.0);
  std::int64_t paired_root = -1;
  {
    ScopedSpan paired(tracer, "paired", -1);
    paired_root = paired.id();
    for (std::size_t k = 0; k < nkinds; ++k) {
      const core::Accelerator& acc = *st.accs[k];
      st.engine->parallel_for(ngroups, [&](std::size_t g) {
        const std::uint64_t id = request_id(k, g);
        Outcomes outs;
        std::vector<LaneReplay> lanes;
        const auto lockstep = [&] {
          ScopedSpan s(tracer, "accelerator.lockstep", paired.id(), id);
          outs = acc.try_compute_lockstep(group(g));
        };
        const auto replay = [&] {
          lanes = replay_fullspice(tracer, acc, group(g), paired.id(), id);
        };
        if ((k + g) % 2 == 0) {
          lockstep();
          replay();
        } else {
          replay();
          lockstep();
        }
        bool ok = outs.size() == lanes.size();
        for (std::size_t i = 0; ok && i < lanes.size(); ++i) {
          const core::AnalogEval& e = lanes[i].eval;
          const core::ComputeOutcome& o = traced[k][g * width + i];
          const core::QueryRequest& q = group(g)[i];
          group_newton[k * ngroups + g] +=
              static_cast<double>(e.newton_iterations);
          // A transient that never settled reports 0; the accelerator then
          // falls back to the timing model, as try_compute does.
          const double settle =
              e.convergence_time_s > 0.0
                  ? e.convergence_time_s
                  : acc.timing().convergence_time_s(acc.spec().kind,
                                                    q.q.size()) *
                        static_cast<double>(
                            acc.tiles_required(q.p.size(), q.q.size()));
          ok = e.ok && o.ok() && outs[i].ok() &&
               core::bitwise_equal(outs[i].value(), o.value()) &&
               same_bits(lanes[i].value, o.value().value) &&
               same_bits(e.out_volts, o.value().volts) &&
               same_bits(settle, o.value().convergence_time_s);
        }
        group_ok[k * ngroups + g] = ok ? 1 : 0;
      });
    }
  }
  const std::size_t bad_groups =
      static_cast<std::size_t>(std::count(group_ok.begin(), group_ok.end(), 0));
  rep.gate("replay_equals_lockstep", bad_groups == 0);
  rep.attempted += 3 * nq;  // traced pass, paired lockstep, replay
  rep.failed += bad_groups + (traced_same ? 0 : 1);

  // Per group: the paired lockstep span minus the same group's replay spans.
  const std::vector<Span> spans = tracer.spans();
  std::unordered_map<std::uint64_t, double> lock_s;
  std::unordered_map<std::uint64_t, double> replay_s;
  std::map<std::string, double> backend_s;  // raw replay time per span name
  for (const Span& s : spans) {
    if (s.parent != paired_root) continue;
    if (s.name == "accelerator.lockstep") {
      lock_s[s.request] += s.end - s.start;
    } else {
      replay_s[s.request] += s.end - s.start;
      backend_s[s.name] += s.end - s.start;
    }
  }
  // A group's difference moves by several percent of its lockstep time with
  // the other workers' load, more than the accelerator's own work, so the
  // per-group fractions are summarised by their median.
  double replay_total = 0.0;
  std::vector<double> group_self_fraction;
  for (const auto& [id, l] : lock_s) {
    replay_total += replay_s[id];
    group_self_fraction.push_back(l > 0.0 ? (l - replay_s[id]) / l : 0.0);
  }
  rep.samples["accelerator.group_self_fraction"] = group_self_fraction;
  const double self_fraction = median(group_self_fraction);
  rep.info["accelerator.self_fraction"] = self_fraction;

  // Layer self times in wall-clock seconds of the traced pass: the engine's
  // share is its attributed time outside any lockstep call; the attributed
  // lockstep time splits into the accelerator's own share and the backend's
  // by the median paired fraction, clamped at 0 (a negative median is noise:
  // try_compute_lockstep does the replay's work and more).
  const double lockstep_wall = attr("accelerator.lockstep");
  const double engine_self = attr("batch_engine.call");
  const double accel_self =
      std::clamp(self_fraction, 0.0, 1.0) * lockstep_wall;
  const double backend_wall = lockstep_wall - accel_self;
  rep.metrics["accelerator.self_s"] = accel_self;
  rep.info["layer_self_s.batch_engine"] = engine_self;
  rep.info["layer_self_s.accelerator"] = accel_self;
  for (const auto& [name, s] : backend_s) {
    rep.info["layer_self_s." + name] =
        replay_total > 0.0 ? backend_wall * s / replay_total : 0.0;
  }
  rep.info["layer_self_s.outside_layers"] = attr("<root>");
  rep.metrics["trace.coverage"] =
      (engine_self + accel_self + backend_wall) / wall;
  rep.metrics["trace.overhead_ratio"] = traced_wall / wall;
  rep.info["traced_wall_s"] = traced_wall;

  rep.metrics["backend.encode_us"] = mean_span(spans, "backend.encode") * 1e6;
  for (std::size_t k = 0; k < nkinds; ++k) {
    const std::string kname = dist::kind_name(dist::kAllKinds[k]);
    double newton = 0.0;
    for (std::size_t g = 0; g < ngroups; ++g) {
      newton += group_newton[k * ngroups + g];
    }
    fullspice_layer(kname, span_total(spans, "backend.fullspice." + kname),
                    static_cast<double>(queries.size()), newton, rep);
  }
  return 0;
}

}  // namespace pb
