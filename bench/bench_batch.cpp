// Serial-vs-parallel throughput of the batch query engine: a kNN-style
// workload (every query against every training series, the hot loop of
// Sec. 1's mining tasks) evaluated through the Wavefront backend at 1, 2,
// 4 and 8 threads, reporting speedup, scaling efficiency, and a
// bit-identity check of the determinism contract.
//
//   bench_batch [--pairs=24] [--length=20] [--threads-max=8]

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/accelerator.hpp"
#include "core/batch_engine.hpp"
#include "util/table.hpp"

using namespace mda;

namespace {

double time_batch(const core::Accelerator& acc,
                  const std::vector<core::BatchQuery>& queries,
                  std::size_t threads, std::vector<double>& out) {
  core::BatchOptions opts;
  opts.num_threads = threads;
  core::BatchEngine engine(opts);
  const auto t0 = std::chrono::steady_clock::now();
  out = engine.compute_distances(acc, queries);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto pairs =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "pairs", 24));
  const auto length =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "length", 20));
  const auto threads_max = static_cast<std::size_t>(
      bench::flag_value(argc, argv, "threads-max", 8));

  std::printf("=== Batch engine scaling: %zu DTW pairs, length %zu, "
              "Wavefront backend ===\n\n",
              pairs, length);

  // kNN-style pair set: random queries against a small training pool.
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

  core::DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  core::Accelerator acc;
  acc.configure(spec, core::Backend::Wavefront);

  std::vector<double> reference;
  const double serial_s = time_batch(acc, queries, 1, reference);

  util::Table table({"threads", "wall (s)", "pairs/s", "speedup",
                     "efficiency", "bit-identical"});
  table.add_row({"1", util::Table::fmt(serial_s, 3),
                 util::Table::fmt(pairs / serial_s, 1), "1.00", "100%",
                 "ref"});
  for (std::size_t threads = 2; threads <= threads_max; threads *= 2) {
    std::vector<double> out;
    const double wall_s = time_batch(acc, queries, threads, out);
    const double speedup = serial_s / wall_s;
    bool identical = out.size() == reference.size();
    for (std::size_t i = 0; identical && i < out.size(); ++i) {
      identical = out[i] == reference[i];
    }
    table.add_row({std::to_string(threads), util::Table::fmt(wall_s, 3),
                   util::Table::fmt(pairs / wall_s, 1),
                   util::Table::fmt(speedup, 2),
                   util::Table::fmt(100.0 * speedup / threads, 0) + "%",
                   identical ? "yes" : "NO"});
    if (!identical) {
      std::printf("\nFAIL: results at %zu threads differ from serial\n",
                  threads);
      return 1;
    }
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nhardware threads available: %u\n",
              std::thread::hardware_concurrency());
  std::printf("determinism contract holds: identical bits at every pool "
              "size (speedup tracks physical cores, not the thread knob)\n");
  return 0;
}
