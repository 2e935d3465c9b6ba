// Batched lockstep-solver benchmark (DESIGN.md §12).  The batch engine
// chunks a FullSpice stream into fixed width-W groups whose transients run
// in lockstep through the SoA Newton/LU solver: one shared MNA pattern and
// LU structure per configuration, B value lanes advanced by vectorized
// refactor/solve sweeps.  Width 1, the default, runs one task per query on
// the scalar Newton path.
//
// This bench pins the contract numbers on the paper's deployment scenario
// (a kNN stream: one probe vs many candidates, §3.3):
//  * throughput — wall-clock time of the width-W stream at each engine
//    thread count of --threads (1 by default: per core), per kind and
//    aggregate, and its speedup over the serial scalar stream (one thread,
//    query by query) — widths compare directly at one thread count;
//  * kernel throughput — batched SoA refactor+solve vs per-lane scalar
//    SparseLu on identical value streams, isolating the solver from Newton
//    stamping (which is intrinsic and identical in both paths);
//  * bit identity — every width's results compared bitwise against the
//    serial try_compute stream (the scalar solver path, which width 1
//    executes verbatim), and kernel solutions compared
//    bitwise against the per-lane scalar solver.
//
// --json=<path> [--queries=N] [--length=L] [--threads=T[,T...]] runs the
// fixed scenario and writes a machine-readable comparison (committed baseline:
// BENCH_batchsolve.json).  Exit code 2 if any width's results differ
// bitwise from the serial reference, else 0.  Without --json it runs the
// google-benchmark microbenchmarks below.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "host_fingerprint.hpp"
#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/batch_engine.hpp"
#include "distance/registry.hpp"
#include "spice/sparse.hpp"
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
  std::vector<core::BatchQuery> queries;
};

Stream make_stream(dist::DistanceKind kind, std::size_t queries,
                   std::size_t length) {
  Stream s;
  s.p = series(1000 + static_cast<std::uint64_t>(kind), length);
  for (std::size_t i = 0; i < queries; ++i) {
    s.candidates.push_back(series(2000 + 17 * i, length));
  }
  for (const auto& q : s.candidates) s.queries.push_back({s.p, q});
  return s;
}

core::DistanceSpec spec_for(dist::DistanceKind kind) {
  core::DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.3;  // LCS/EdD comparator threshold
  return spec;
}

constexpr std::size_t kWidths[] = {1, 2, 4, 8};

struct WidthRun {
  double seconds = 0.0;
  bool bit_identical = true;  ///< vs the serial scalar stream.
};

struct KindRun {
  double scalar_s = 0.0;  ///< Serial Accelerator::compute stream.
  /// widths[t][w]: the width kWidths[w] stream at engine thread count t.
  std::vector<std::vector<WidthRun>> widths;
};

KindRun run_kind(dist::DistanceKind kind, std::size_t queries,
                 std::size_t length, const std::vector<std::size_t>& threads) {
  const Stream s = make_stream(kind, queries, length);
  const core::DistanceSpec spec = spec_for(kind);
  core::AcceleratorConfig cfg;
  cfg.backend = core::Backend::FullSpice;

  KindRun run;
  // Serial scalar reference: one warm accelerator streaming query by query.
  std::vector<core::ComputeResult> want;
  want.reserve(queries);
  {
    core::Accelerator acc(cfg);
    acc.configure(spec);
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& q : s.candidates) want.push_back(acc.try_compute(s.p, q).unwrap());
    run.scalar_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  for (const std::size_t t : threads) {
    std::vector<WidthRun>& at_t = run.widths.emplace_back(std::size(kWidths));
    for (std::size_t w = 0; w < std::size(kWidths); ++w) {
      // Fresh accelerator (own cache) per width: every run pays the same
      // one-time build, and lane assignment starts from a cold pool.
      core::Accelerator acc(cfg);
      acc.configure(spec);
      core::BatchOptions opts;
      opts.num_threads = t;
      opts.solver_batch_width = kWidths[w];
      const core::BatchEngine engine(opts);
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<core::ComputeResult> got =
          engine.compute_batch(acc, s.queries);
      at_t[w].seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (!core::bitwise_equal(want[i], got[i])) at_t[w].bit_identical = false;
      }
    }
  }
  return run;
}

// ------------------------------------------------------ kernel throughput --
// The solver proper, isolated from stamping: batched SoA refactor+solve of W
// lanes vs W independent SparseLu refactor+solve passes over the exact same
// value streams.  This is the per-core number the SoA kernels are accountable
// for — the end-to-end stream dilutes it with Newton stamping (nonlinear
// device re-evaluation is intrinsic to Newton and identical in both paths).

struct KernelRun {
  double scalar_s = 0.0;
  double batch_s = 0.0;
  bool bit_identical = true;
};

/// Diagonally dominant random sparse system sized like the DTW wavefront MNA
/// (n ~500, ~5 entries/row) — same generator shape as the batch-solver fuzz
/// suite.
spice::CscMatrix kernel_matrix(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> rows, cols;
  std::vector<double> vals;
  for (int i = 0; i < n; ++i) {
    double diag = 1.0;
    for (int k = 0; k < 4; ++k) {
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
  return spice::CscMatrix::from_triplets(n, rows, cols, vals);
}

KernelRun run_kernel(int n, std::size_t width, int rounds) {
  const spice::CscMatrix base = kernel_matrix(n, 97);
  // Per-round, per-lane value/rhs streams (generated outside the timers;
  // perturbations small enough that the bit-exact refactor guard holds).
  util::Rng rng(1234);
  std::vector<std::vector<std::vector<double>>> vals(
      static_cast<std::size_t>(rounds));
  std::vector<std::vector<std::vector<double>>> rhs(
      static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t l = 0; l < width; ++l) {
      std::vector<double> v = base.values;
      for (double& x : v) x *= rng.uniform(0.95, 1.05);
      vals[static_cast<std::size_t>(r)].push_back(std::move(v));
      std::vector<double> b(static_cast<std::size_t>(n));
      for (double& x : b) x = rng.uniform(-1.0, 1.0);
      rhs[static_cast<std::size_t>(r)].push_back(std::move(b));
    }
  }

  KernelRun run;
  spice::CscMatrix m = base;

  // Scalar: one SparseLu per lane (factored once on the base values), then
  // rounds x lanes refactor+solve — the pre-batching per-lane regime.
  std::vector<spice::SparseLu> slu(width);
  for (auto& lu : slu) {
    lu.set_bit_exact(true);
    if (!lu.factor(m)) return run;
  }
  std::vector<std::vector<double>> want(width);
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t l = 0; l < width; ++l) {
        m.values = vals[static_cast<std::size_t>(r)][l];
        if (!slu[l].refactor(m)) return run;
        want[l] = rhs[static_cast<std::size_t>(r)][l];
        slu[l].solve(want[l]);
      }
    }
    run.scalar_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  // Batched: adopt the shared structure once, then rounds of load / SoA
  // refactor / SoA solve / store (staging included — it is real overhead).
  spice::SparseLu ref;
  ref.set_bit_exact(true);
  m.values = base.values;
  if (!ref.factor(m)) return run;
  spice::BatchedSparseLu blu;
  if (!blu.adopt(ref, m, width)) return run;
  std::vector<unsigned char> ok(width);
  std::vector<double> x(static_cast<std::size_t>(n));
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t l = 0; l < width; ++l) {
      m.values = vals[static_cast<std::size_t>(r)][l];
      blu.load_lane_values(l, m);
      blu.load_lane_rhs(l, rhs[static_cast<std::size_t>(r)][l]);
    }
    blu.refactor(ok.data());
    blu.solve();
    for (std::size_t l = 0; l < width; ++l) {
      if (!ok[l]) {
        run.bit_identical = false;
        continue;
      }
      blu.store_lane_solution(l, x);
      if (r + 1 == rounds &&
          std::memcmp(x.data(), want[l].data(), x.size() * sizeof(double)) !=
              0) {
        run.bit_identical = false;
      }
    }
  }
  run.batch_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return run;
}

long flag_num(int argc, char** argv, const char* name, long fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return std::stol(arg.substr(prefix.size()));
  }
  return fallback;
}

/// --threads=1,4 style list of engine thread counts (default: 1).
std::vector<std::size_t> flag_threads(int argc, char** argv) {
  std::vector<std::size_t> out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) != 0) continue;
    std::size_t pos = std::string("--threads=").size();
    while (pos < arg.size()) {
      const std::size_t comma = std::min(arg.find(',', pos), arg.size());
      out.push_back(std::stoul(arg.substr(pos, comma - pos)));
      pos = comma + 1;
    }
  }
  if (out.empty()) out.push_back(1);
  return out;
}

int run_json_bench(const std::string& path, int argc, char** argv) {
  const auto queries =
      static_cast<std::size_t>(flag_num(argc, argv, "queries", 100));
  const auto length =
      static_cast<std::size_t>(flag_num(argc, argv, "length", 4));
  const std::vector<std::size_t> threads = flag_threads(argc, argv);

  bool all_identical = true;
  double scalar_total = 0.0;
  std::vector<std::vector<double>> width_totals(
      threads.size(), std::vector<double>(std::size(kWidths), 0.0));
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[bench_batchsolve] cannot open %s\n", path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"batch_solver\",\n"
      << "  \"host\": " << bench::host_fingerprint_json() << ",\n"
      << "  \"scenario\": {\n"
      << "    \"shape\": \"knn\",\n"
      << "    \"backend\": \"fullspice\",\n"
      << "    \"threads\": [";
  for (std::size_t t = 0; t < threads.size(); ++t) {
    out << (t > 0 ? ", " : "") << threads[t];
  }
  out << "],\n"
      << "    \"queries\": " << queries << ",\n"
      << "    \"length\": " << length << "\n"
      << "  },\n"
      << "  \"kinds\": {\n";
  // Per kind: the serial scalar stream, then per engine thread count the
  // seconds, speedup over that stream and bit identity of every width.
  const auto emit_widths = [&](const std::vector<WidthRun>& runs,
                               double scalar_s) {
    out << "{";
    for (std::size_t w = 0; w < std::size(kWidths); ++w) {
      const double speedup =
          runs[w].seconds > 0.0 ? scalar_s / runs[w].seconds : 0.0;
      out << "\"" << kWidths[w] << "\": {\"seconds\": " << runs[w].seconds
          << ", \"speedup\": " << speedup << ", \"bit_identical\": "
          << (runs[w].bit_identical ? "true" : "false") << "}"
          << (w + 1 < std::size(kWidths) ? ", " : "");
    }
    out << "}";
  };
  std::size_t k = 0;
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    std::fprintf(stderr, "[bench_batchsolve] %s (%zu queries, length %zu)\n",
                 dist::kind_name(kind).c_str(), queries, length);
    const KindRun run = run_kind(kind, queries, length, threads);
    scalar_total += run.scalar_s;
    out << "    \"" << dist::kind_name(kind) << "\": {"
        << "\"scalar_seconds\": " << run.scalar_s << ", \"threads\": {";
    for (std::size_t t = 0; t < threads.size(); ++t) {
      out << "\"" << threads[t] << "\": ";
      emit_widths(run.widths[t], run.scalar_s);
      out << (t + 1 < threads.size() ? ", " : "");
      for (std::size_t w = 0; w < std::size(kWidths); ++w) {
        width_totals[t][w] += run.widths[t][w].seconds;
        all_identical = all_identical && run.widths[t][w].bit_identical;
      }
    }
    out << "}}" << (++k < std::size(dist::kAllKinds) ? ",\n" : "\n");
  }
  out << "  },\n"
      << "  \"scalar_seconds\": " << scalar_total << ",\n"
      << "  \"threads\": {";
  for (std::size_t t = 0; t < threads.size(); ++t) {
    out << "\"" << threads[t] << "\": {";
    for (std::size_t w = 0; w < std::size(kWidths); ++w) {
      const double secs = width_totals[t][w];
      const double speedup = secs > 0.0 ? scalar_total / secs : 0.0;
      out << "\"" << kWidths[w] << "\": {\"seconds\": " << secs
          << ", \"speedup\": " << speedup << "}"
          << (w + 1 < std::size(kWidths) ? ", " : "");
      std::fprintf(stderr,
                   "[bench_batchsolve] threads %zu width %zu: %.2fs (%.2fx)\n",
                   threads[t], kWidths[w], secs, speedup);
    }
    out << "}" << (t + 1 < threads.size() ? ", " : "");
  }
  const int kn = static_cast<int>(flag_num(argc, argv, "kernel-n", 504));
  const int krounds =
      static_cast<int>(flag_num(argc, argv, "kernel-rounds", 150));
  out << "},\n"
      << "  \"kernel\": {\"n\": " << kn << ", \"rounds\": " << krounds
      << ", \"widths\": {";
  for (std::size_t w = 0; w < std::size(kWidths); ++w) {
    // Median-of-3 by speedup: single-shot wall clocks on a shared host swing
    // by 2x, and a committed baseline should not pin an outlier.
    KernelRun reps[3];
    for (KernelRun& r : reps) r = run_kernel(kn, kWidths[w], krounds);
    std::sort(std::begin(reps), std::end(reps),
              [](const KernelRun& a, const KernelRun& b) {
                const double sa = a.batch_s > 0.0 ? a.scalar_s / a.batch_s : 0.0;
                const double sb = b.batch_s > 0.0 ? b.scalar_s / b.batch_s : 0.0;
                return sa < sb;
              });
    const KernelRun& kr = reps[1];
    all_identical = all_identical && reps[0].bit_identical &&
                    reps[1].bit_identical && reps[2].bit_identical;
    const double speedup = kr.batch_s > 0.0 ? kr.scalar_s / kr.batch_s : 0.0;
    out << "\"" << kWidths[w] << "\": {\"scalar_seconds\": " << kr.scalar_s
        << ", \"batch_seconds\": " << kr.batch_s << ", \"speedup\": " << speedup
        << ", \"bit_identical\": " << (kr.bit_identical ? "true" : "false")
        << "}" << (w + 1 < std::size(kWidths) ? ", " : "");
    std::fprintf(stderr, "[bench_batchsolve] kernel width %zu: %.2fx\n",
                 kWidths[w], speedup);
  }
  out << "}},\n"
      << "  \"all_bit_identical\": " << (all_identical ? "true" : "false")
      << "\n}\n";
  out.close();
  std::fprintf(stderr, "[bench_batchsolve] wrote %s (bit-identical %s)\n",
               path.c_str(), all_identical ? "yes" : "no");
  return all_identical ? 0 : 2;
}

// ------------------------------------------------- google-benchmark mode --

void BM_BatchWidth(benchmark::State& state) {
  const auto kind = static_cast<dist::DistanceKind>(state.range(0));
  const auto width = static_cast<std::size_t>(state.range(1));
  const Stream s = make_stream(kind, 16, 4);
  core::AcceleratorConfig cfg;
  cfg.backend = core::Backend::FullSpice;
  core::Accelerator acc(cfg);
  acc.configure(spec_for(kind));
  core::BatchOptions opts;
  opts.num_threads = 1;
  opts.solver_batch_width = width;
  const core::BatchEngine engine(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.compute_batch(acc, s.queries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.candidates.size()));
}
BENCHMARK(BM_BatchWidth)
    ->Args({static_cast<long>(dist::DistanceKind::Manhattan), 1})
    ->Args({static_cast<long>(dist::DistanceKind::Manhattan), 4})
    ->Args({static_cast<long>(dist::DistanceKind::Dtw), 1})
    ->Args({static_cast<long>(dist::DistanceKind::Dtw), 4})
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
