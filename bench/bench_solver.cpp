// Microbenchmarks of the simulation substrate (google-benchmark): sparse LU
// factorisation, nonlinear DC solves of single PEs, wavefront cell
// throughput, and the digital reference distances used as the CPU baseline.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "host_fingerprint.hpp"
#include "core/accelerator.hpp"
#include "core/array_builder.hpp"
#include "core/backend.hpp"
#include "distance/registry.hpp"
#include "obs/snapshot.hpp"
#include "spice/sparse.hpp"
#include "spice/transient.hpp"
#include "util/rng.hpp"

using namespace mda;

namespace {

void BM_SparseLuFactor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  std::vector<int> rows, cols;
  std::vector<double> vals;
  for (int i = 0; i < n; ++i) {
    double diag = 1.0;
    for (int k = 0; k < 5; ++k) {
      const int j = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      if (j == i) continue;
      const double v = rng.uniform(-1.0, 1.0);
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(v);
      diag += std::abs(v);
    }
    rows.push_back(i);
    cols.push_back(i);
    vals.push_back(diag);
  }
  const spice::CscMatrix a = spice::CscMatrix::from_triplets(n, rows, cols, vals);
  for (auto _ : state) {
    spice::SparseLu lu;
    benchmark::DoNotOptimize(lu.factor(a));
  }
}
BENCHMARK(BM_SparseLuFactor)->Arg(100)->Arg(1000)->Arg(5000);

void BM_WavefrontDistance(benchmark::State& state) {
  const auto kind = static_cast<dist::DistanceKind>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(2);
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);
  core::AcceleratorConfig config;
  core::DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.3;
  const core::EncodedInputs enc = core::encode_inputs(config, spec, p, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::eval_wavefront(config, spec, enc));
  }
}
BENCHMARK(BM_WavefrontDistance)
    ->Args({static_cast<long>(dist::DistanceKind::Dtw), 10})
    ->Args({static_cast<long>(dist::DistanceKind::Lcs), 10})
    ->Args({static_cast<long>(dist::DistanceKind::Manhattan), 32})
    ->Unit(benchmark::kMillisecond);

void BM_BehavioralDistance(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);
  core::AcceleratorConfig config;
  core::DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  const core::EncodedInputs enc = core::encode_inputs(config, spec, p, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::eval_behavioral(config, spec, enc));
  }
}
BENCHMARK(BM_BehavioralDistance)->Arg(40)->Arg(128);

void BM_ReferenceDistance(benchmark::State& state) {
  const auto kind = static_cast<dist::DistanceKind>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(4);
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);
  dist::DistanceParams params;
  params.threshold = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::compute(kind, p, q, params));
  }
}
BENCHMARK(BM_ReferenceDistance)
    ->Args({static_cast<long>(dist::DistanceKind::Dtw), 40})
    ->Args({static_cast<long>(dist::DistanceKind::Lcs), 40})
    ->Args({static_cast<long>(dist::DistanceKind::Edit), 40})
    ->Args({static_cast<long>(dist::DistanceKind::Hausdorff), 40})
    ->Args({static_cast<long>(dist::DistanceKind::Hamming), 40})
    ->Args({static_cast<long>(dist::DistanceKind::Manhattan), 40});

// ---------------------------------------------------------------------------
// --json=<path>: a fixed solver scenario instead of google-benchmark.
//
// Runs the same Newton-dominated matrix-structure transient (20x20 DTW array,
// ~12k unknowns) under three solver modes and
// emits a machine-readable comparison (see BENCH_solver.json for the
// committed baseline):
//  * repivot_every_solve — allow_lu_refactor=false, the reference mode that
//    pays a full pivoting factorisation on every linearised solve;
//  * refactor            — the default KLU-semantics fast path;
//  * refactor_bit_exact  — the strict mode whose probe traces must match the
//    reference bit for bit (checked here and reported in the JSON).
// Each mode also reports lu_nnz — nnz(L+U) of the final factorisation under
// the fill-reducing elimination order — and ordering_seconds, the time spent
// computing that order (once per stamp pattern).

struct JsonRun {
  double seconds = 0.0;
  spice::TransientResult result;
  std::uint64_t factors = 0, refactors = 0, fallbacks = 0, pattern_builds = 0,
                newton_iters = 0;
  std::size_t lu_nnz = 0;
  double ordering_seconds = 0.0;
};

std::uint64_t counter_of(const obs::MetricsSnapshot& snap,
                         const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m ? m->count : 0;
}

JsonRun run_json_scenario(bool allow_refactor, bool bit_exact,
                          int* num_unknowns) {
  using namespace mda::core;
  const std::size_t n = 20;
  util::Rng rng(31 + static_cast<std::uint64_t>(dist::DistanceKind::Dtw));
  std::vector<double> p(n), q(n);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  for (double& v : q) v = rng.uniform(-1.5, 1.5);

  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  spec.threshold = 0.3;
  const EncodedInputs enc = encode_inputs(config, spec, p, q);
  AcceleratorConfig cfg = config;
  cfg.vstep = enc.vstep_eff;
  ArrayCircuit array = build_array(cfg, spec, n, n);
  array.set_step_inputs(enc.p_volts, enc.q_volts, 0.0);

  spice::Tolerances tol;
  tol.allow_lu_refactor = allow_refactor;
  tol.lu_refactor_bit_exact = bit_exact;
  spice::TransientSimulator sim(*array.net, tol);
  sim.probe(array.out, "out");
  if (num_unknowns) *num_unknowns = sim.mna().num_unknowns();
  spice::TransientParams params;
  params.t_stop = 5e-10;

  JsonRun run;
  const obs::MetricsSnapshot before = obs::MetricsSnapshot::capture();
  const auto t0 = std::chrono::steady_clock::now();
  run.result = sim.run(params);
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const obs::MetricsSnapshot after = obs::MetricsSnapshot::capture();
  auto delta = [&](const char* name) {
    return counter_of(after, name) - counter_of(before, name);
  };
  run.factors = delta("mda.spice.sparse_lu_factors");
  run.refactors = delta("mda.spice.sparse_lu_refactors");
  run.fallbacks = delta("mda.spice.refactor_fallbacks");
  run.pattern_builds = delta("mda.spice.mna_pattern_builds");
  run.newton_iters = delta("mda.spice.newton_iterations");
  run.lu_nnz = sim.mna().lu_nnz();
  const obs::MetricValue* ord_after = after.find("mda.spice.ordering_time_s");
  const obs::MetricValue* ord_before =
      before.find("mda.spice.ordering_time_s");
  run.ordering_seconds = (ord_after ? ord_after->sum : 0.0) -
                         (ord_before ? ord_before->sum : 0.0);
  return run;
}

void emit_json_mode(std::ofstream& out, const char* name, const JsonRun& r,
                    bool last) {
  out << "    \"" << name << "\": {\n"
      << "      \"seconds\": " << r.seconds << ",\n"
      << "      \"ok\": " << (r.result.ok ? "true" : "false") << ",\n"
      << "      \"steps\": " << r.result.steps << ",\n"
      << "      \"newton_iterations\": " << r.newton_iters << ",\n"
      << "      \"sparse_lu_factors\": " << r.factors << ",\n"
      << "      \"sparse_lu_refactors\": " << r.refactors << ",\n"
      << "      \"refactor_fallbacks\": " << r.fallbacks << ",\n"
      << "      \"mna_pattern_builds\": " << r.pattern_builds << ",\n"
      << "      \"lu_nnz\": " << r.lu_nnz << ",\n"
      << "      \"ordering_seconds\": " << r.ordering_seconds << "\n"
      << "    }" << (last ? "\n" : ",\n");
}

bool traces_bit_identical(const spice::TransientResult& a,
                          const spice::TransientResult& b) {
  const spice::Trace& ta = a.trace("out");
  const spice::Trace& tb = b.trace("out");
  if (ta.t.size() != tb.t.size()) return false;
  for (std::size_t i = 0; i < ta.t.size(); ++i) {
    if (ta.t[i] != tb.t[i] || ta.v[i] != tb.v[i]) return false;
  }
  return true;
}

int run_json_bench(const std::string& path) {
  int unknowns = 0;
  std::fprintf(stderr, "[bench_solver] repivot-every-solve reference...\n");
  const JsonRun ref = run_json_scenario(/*allow_refactor=*/false,
                                        /*bit_exact=*/false, &unknowns);
  std::fprintf(stderr, "[bench_solver] refactor fast path (default)...\n");
  const JsonRun fast = run_json_scenario(/*allow_refactor=*/true,
                                         /*bit_exact=*/false, nullptr);
  std::fprintf(stderr, "[bench_solver] refactor fast path (bit-exact)...\n");
  const JsonRun exact = run_json_scenario(/*allow_refactor=*/true,
                                          /*bit_exact=*/true, nullptr);
  if (!ref.result.ok || !fast.result.ok || !exact.result.ok) {
    std::fprintf(stderr, "[bench_solver] transient failed: %s\n",
                 (!ref.result.ok ? ref.result.error
                                 : !fast.result.ok ? fast.result.error
                                                   : exact.result.error)
                     .c_str());
    return 1;
  }
  const bool identical = traces_bit_identical(ref.result, exact.result);
  const double speedup = fast.seconds > 0.0 ? ref.seconds / fast.seconds : 0.0;

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[bench_solver] cannot open %s\n", path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"solver_refactor\",\n"
      << "  \"host\": " << bench::host_fingerprint_json() << ",\n"
      << "  \"scenario\": {\n"
      << "    \"kind\": \"dtw\",\n"
      << "    \"rows\": 20,\n"
      << "    \"cols\": 20,\n"
      << "    \"t_stop\": 5e-10,\n"
      << "    \"num_unknowns\": " << unknowns << "\n"
      << "  },\n"
      << "  \"modes\": {\n";
  emit_json_mode(out, "repivot_every_solve", ref, false);
  emit_json_mode(out, "refactor", fast, false);
  emit_json_mode(out, "refactor_bit_exact", exact, true);
  out << "  },\n"
      << "  \"speedup_refactor_vs_repivot\": " << speedup << ",\n"
      << "  \"bit_exact_traces_identical\": " << (identical ? "true" : "false")
      << "\n}\n";
  out.close();
  std::fprintf(stderr,
               "[bench_solver] wrote %s (speedup %.2fx, bit-identical %s)\n",
               path.c_str(), speedup, identical ? "yes" : "no");
  return identical ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      return run_json_bench(arg.substr(7));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
